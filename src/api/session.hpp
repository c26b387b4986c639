// The synchronous public façade: Session handles plus Codec / TableDesigner
// views.
//
// A Session is the root handle an embedder holds; its views expose the
// library's layers behind the Status/Result error model:
//
//   Session session;
//   auto stream = session.codec().encode(view, EncodeOptions().quality(90));
//   if (!stream.ok()) { /* stream.status().code() is typed */ }
//
// Threading: a Session binds codec operations to the *calling thread's*
// codec context (per-thread scratch arenas + cached Huffman/reciprocal/
// quality tables — the same mechanism the parallel dataset loops and the
// serving layer's workers use), so one Session may be shared across
// threads for Codec operations: each thread transparently gets its own
// warm arenas, and results never depend on context state. TableDesigner
// accumulates state and is NOT thread-safe; use one per designing thread.
//
// Every entry point catches internal exceptions at the boundary and maps
// them to typed Status codes; nothing throws out of this header's classes
// (allocation failure aside). Outputs are bit-identical to the direct
// internal calls (jpeg::encode / jpeg::decode / core::transcode_bytes) —
// pinned by tests/test_api.cpp — so code migrating onto the façade
// changes no bytes.
//
// Standard-library-only header: safe for embedders, and compiled
// standalone under -Wall -Werror by the header self-containment CI gate.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/status.hpp"
#include "api/types.hpp"

namespace dnj::api {

class Codec;
class TableDesigner;

/// Version of the C++ façade surface, bumped on incompatible change.
/// (The C ABI is versioned separately: dnj_c.h / dnj_abi_version().)
inline constexpr std::uint32_t kApiVersionMajor = 1;
inline constexpr std::uint32_t kApiVersionMinor = 5;  ///< 1.5: C++ façade removals; C ABI unchanged
                                                      ///  1.4: async design jobs (submit/poll/cancel)
                                                      ///  1.3: metrics_text + trace dump
                                                      ///  1.2: Registry + deepn_encode + dnj_registry_*

/// (major << 16) | minor of the built library — compare against the
/// header constants to detect a header/library skew.
std::uint32_t api_version();

class Session {
 public:
  Session();
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Codec view over this session. The view borrows the Session and must
  /// not outlive it.
  Codec codec();

  /// A fresh, empty table designer (independent of other designers).
  TableDesigner designer();

 private:
  friend class Codec;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Synchronous codec entry points. Copyable view; borrows its Session.
class Codec {
 public:
  /// Encodes interleaved 8-bit pixels to a complete JFIF stream. The view
  /// is read in place — no staging copy of the pixels.
  Result<std::vector<std::uint8_t>> encode(ImageView image,
                                           const EncodeOptions& options = {}) const;

  /// Decodes a JFIF stream into owned pixels.
  Result<DecodedImage> decode(ByteSpan stream) const;

  /// Decode + re-encode under `options` in one call, byte-identical to
  /// decode followed by encode of the decoded pixels.
  Result<std::vector<std::uint8_t>> transcode(ByteSpan stream,
                                              const EncodeOptions& options = {}) const;

  /// Parses header facts without decoding pixel data.
  Result<StreamInfo> inspect(ByteSpan stream) const;

 private:
  friend class Session;
  explicit Codec(Session* session) : session_(session) {}
  Session* session_;
};

/// Accumulates a representative image sample, then runs the DeepN-JPEG
/// design flow (frequency analysis -> band segmentation -> PLM) over it.
/// Move-only; NOT thread-safe.
class TableDesigner {
 public:
  TableDesigner();
  ~TableDesigner();
  TableDesigner(TableDesigner&&) noexcept;
  TableDesigner& operator=(TableDesigner&&) noexcept;
  TableDesigner(const TableDesigner&) = delete;
  TableDesigner& operator=(const TableDesigner&) = delete;

  /// Adds one image to the design sample (pixels are copied — the design
  /// flow owns its sample). `label` is the image's class: Algorithm 1
  /// samples every k-th image *per class*, so pass real labels when you
  /// have them and 0 otherwise.
  Status add(ImageView image, int label = 0);

  std::size_t image_count() const;

  /// Runs the design flow over everything added so far.
  Result<TableDesign> design(const DesignOptions& options = {}) const;

  // Async design jobs (1.4). submit() snapshots the accumulated sample
  // into a rate-controlled, checkpointable job on the designer's private
  // single-worker job manager — design() stays available, and more images
  // may be added for a later submit. Job ids are designer-local. A full
  // queue refuses with kRejected; unknown ids are typed kInvalidArgument.

  /// Queues a design job over the images added so far; returns its id.
  Result<std::uint64_t> submit(const DesignJobOptions& options = {});

  /// Snapshot of a job's state/progress (safe while it runs).
  Result<DesignJobStatus> poll(std::uint64_t job_id) const;

  /// Requests cancellation (idempotent; running jobs stop at the next
  /// checkpoint boundary and keep their latest checkpoint).
  Status cancel(std::uint64_t job_id);

  /// Result of a completed or paused job: the annealed table, the
  /// rate-search answer, the registered ladder, and the resume checkpoint.
  /// kRejected while the job is still queued/running.
  Result<DesignJobResult> fetch(std::uint64_t job_id) const;

  /// Blocks until the job leaves kQueued/kRunning, then returns its status.
  Result<DesignJobStatus> wait(std::uint64_t job_id) const;

 private:
  friend class Session;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dnj::api
