#include "jpeg/decoder.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "image/blocks.hpp"
#include "image/resample.hpp"
#include "jpeg/bitio.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/markers.hpp"
#include "jpeg/pipeline/bands.hpp"
#include "jpeg/zigzag.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "simd/dispatch.hpp"

namespace dnj::jpeg {

namespace {

using image::kBlockDim;
using image::PlaneF;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("jpeg::decode: " + what);
}

struct FrameComponent {
  int id = 0;
  int h = 1, v = 1;
  int tq = 0;
  int dc_table = 0;
  int ac_table = 0;
  int blocks_x = 0, blocks_y = 0;  // padded grid within the MCU lattice
  std::int16_t* coeffs = nullptr;  // natural-order blocks in the context arena
  const HuffmanDecoder* dc = nullptr;  // built at SOS from the referenced specs
  const HuffmanDecoder* ac = nullptr;
};

class Parser {
 public:
  Parser(const std::uint8_t* data, std::size_t size, pipeline::CodecContext& ctx)
      : ctx_(ctx), data_(data), size_(size) {}

  JpegInfo info;
  std::vector<FrameComponent> comps;
  // The last DHT definition per slot, validated when read. Decoder tables
  // are built from them at SOS, for the slots the scan references only,
  // and live in the context cache: a warm context decoding a same-table
  // stream skips the per-image table derivation and lookup-table fill.
  std::optional<HuffmanSpec> dc_specs[4], ac_specs[4];
  int mcus_x = 0, mcus_y = 0;
  std::size_t scan_start = 0;  // offset of entropy-coded data

  /// Parses markers through SOS. Returns false if the stream had no SOS.
  bool parse_headers() {
    if (read_u8() != 0xFF || read_u8() != kSOI) fail("missing SOI");
    for (;;) {
      const std::uint8_t marker = next_marker();
      switch (marker) {
        case kEOI:
          return false;
        case kDQT:
          read_dqt();
          break;
        case kDHT:
          read_dht();
          break;
        case kSOF0:
        case kSOF1:
          read_sof();
          break;
        case kDRI:
          read_dri();
          break;
        case kCOM:
          read_com();
          break;
        case kSOS:
          read_sos();
          scan_start = pos_;
          return true;
        default:
          if (is_app(marker)) {
            skip_segment();
          } else if (marker >= 0xC2 && marker <= 0xCF && marker != kDHT) {
            fail("unsupported SOF type (only baseline sequential is implemented)");
          } else {
            skip_segment();
          }
      }
    }
  }

  void decode_scan(int num_threads) {
    // Every block costs at least two bits (a DC code and an AC code of one
    // bit or more), so a scan too short for the frame cannot decode. Fail
    // before sizing the arenas: a corrupt frame header must not be able to
    // ask for gigabytes.
    std::size_t blocks = 0;
    for (const FrameComponent& c : comps)
      blocks += static_cast<std::size_t>(c.blocks_x) * static_cast<std::size_t>(c.blocks_y);
    if (blocks > 4 * (size_ - scan_start)) fail("corrupt entropy-coded data");
    // Size the per-component coefficient arenas now (parse_info never gets
    // here, so header-only parses leave the context untouched). No
    // zero-fill needed: the MCU walk visits every grid block exactly once
    // and decode_block clears each block before writing it.
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      FrameComponent& c = comps[ci];
      pipeline::QuantPlane& plane = ctx_.decode_coeffs[ci];
      plane.reshape(c.blocks_x, c.blocks_y);
      c.coeffs = plane.data();
      if (!dc_specs[c.dc_table] || !ac_specs[c.ac_table])
        fail("scan references undefined Huffman table");
    }
    // Up to six lookups, all into the context's sixteen-slot cache, so no
    // lookup evicts a table an earlier component still points at.
    for (FrameComponent& c : comps) {
      c.dc = &ctx_.decoder_for(*dc_specs[c.dc_table]);
      c.ac = &ctx_.decoder_for(*ac_specs[c.ac_table]);
    }
    units_per_mcu = 0;
    for (std::size_t ci = 0; ci < comps.size(); ++ci)
      for (int by = 0; by < comps[ci].v; ++by)
        for (int bx = 0; bx < comps[ci].h; ++bx)
          units[static_cast<std::size_t>(units_per_mcu++)] = {static_cast<int>(ci), bx, by};
    reference = false;
    for (const FrameComponent& c : comps)
      reference = reference || c.dc->lut_bits() == 0 || c.ac->lut_bits() == 0;

    scan = data_ + scan_start;
    scan_size = size_ - scan_start;
    total_blocks = blocks;
    const int total_mcus = mcus_x * mcus_y;
    if (info.restart_interval > 0 && total_mcus > info.restart_interval) {
      decode_restart_chunks(num_threads);
      return;
    }
    // No restart marker can legally appear.
    decode_speculative_chunks(pipeline::chunk_count(scan_size, total_blocks), num_threads);
  }

 private:
  // Block `unit` of an MCU: its component and offset inside the MCU.
  struct Unit {
    int ci = 0, bx = 0, by = 0;
  };

  // Writes the scan's blocks in order from block t on: block t is unit
  // t % units_per_mcu of MCU t / units_per_mcu.
  class PlaneWriter {
   public:
    PlaneWriter(const Parser& p, std::size_t t)
        : p_(p),
          u_(static_cast<int>(t % static_cast<std::size_t>(p.units_per_mcu))),
          mx_(static_cast<int>(t / static_cast<std::size_t>(p.units_per_mcu) %
                               static_cast<std::size_t>(p.mcus_x))),
          my_(static_cast<int>(t / static_cast<std::size_t>(p.units_per_mcu) /
                               static_cast<std::size_t>(p.mcus_x))) {}

    /// The next block's place in its component's plane.
    std::int16_t* next() {
      const Unit& un = p_.units[static_cast<std::size_t>(u_)];
      const FrameComponent& c = p_.comps[static_cast<std::size_t>(un.ci)];
      std::int16_t* blk =
          c.coeffs + (static_cast<std::size_t>(my_ * c.v + un.by) * c.blocks_x +
                      static_cast<std::size_t>(mx_ * c.h + un.bx)) * 64;
      if (++u_ == p_.units_per_mcu) {
        u_ = 0;
        if (++mx_ == p_.mcus_x) {
          mx_ = 0;
          ++my_;
        }
      }
      return blk;
    }

   private:
    const Parser& p_;
    int u_, mx_, my_;
  };

  struct Run {
    std::size_t blocks = 0;  // decoded
    bool failed = false;     // the block after them did not decode
  };

  /// Calls f(position, decode, skip_bit) with the three reader operations
  /// over `rd`: the data bit position, one block's decode, and one bit
  /// skipped (false at a marker or the end of data). One ReadCursor
  /// serves the whole call; at lookup width 0 every block takes the
  /// bit-by-bit reference decode instead.
  template <class F>
  void with_reader(BitReader& rd, F&& f) const {
    if (reference) {
      f([&] { return rd.bit_position(); },
        [&](std::int16_t* blk, int& pred, const FrameComponent& c) {
          return decode_block(rd, blk, pred, *c.dc, *c.ac);
        },
        [&] { return rd.get_bits(1) >= 0; });
      return;
    }
    BitReader::ReadCursor cur(rd);
    f([&] { return cur.bit_position(); },
      [&](std::int16_t* blk, int& pred, const FrameComponent& c) {
        return decode_block(cur, blk, pred, *c.dc, *c.ac);
      },
      [&] {
        if (cur.bits() < 1) cur.refill();
        if (cur.bits() < 1) return false;
        cur.skip(1);
        return true;
      });
    cur.commit();
  }

  /// Decodes up to `max_blocks` blocks from `rd`, the first one as unit
  /// `first_unit` of an MCU, updating the DC predictors `dc`. Before each
  /// block, stop(k, bit) with the block's index in the run and the
  /// reader's bit position ends the run when it returns true; dest()
  /// gives each block's storage, once per block in order. Leaves `rd` at
  /// the first block not decoded (mid-block if one failed).
  template <class Stop, class Dest>
  Run decode_run(BitReader& rd, std::size_t first_unit, std::size_t max_blocks,
                 std::array<int, pipeline::kMaxComponents>& dc, Stop&& stop, Dest&& dest) const {
    Run run;
    std::size_t u = first_unit;
    with_reader(rd, [&](auto&& position, auto&& decode, auto&&) {
      for (; run.blocks < max_blocks; ++run.blocks) {
        if (stop(run.blocks, position())) break;
        const Unit& un = units[u];
        if (!decode(dest(), dc[static_cast<std::size_t>(un.ci)],
                    comps[static_cast<std::size_t>(un.ci)])) {
          run.failed = true;
          break;
        }
        if (++u == static_cast<std::size_t>(units_per_mcu)) u = 0;
      }
    });
    return run;
  }

  // A speculative chunk's record of one block: (start bit << 5) |
  // (first block of a run << 4) | unit in the MCU.
  static constexpr int kStartShift = 5;
  static constexpr std::uint64_t kRunStart = 16;
  static constexpr std::uint64_t kUnitMask = 15;

  /// Scratch blocks a speculative chunk may fill: a block starts at least
  /// two bits after the one before, so a chunk holds at most four block
  /// starts per byte, and never more than the frame's blocks.
  std::size_t speculation_capacity(const pipeline::ScanChunk& chunk) const {
    return std::min(total_blocks, 4 * (chunk.end - chunk.begin) + 1);
  }

  /// The speculative decode of a chunk after the first: blocks from the
  /// chunk's first byte into scratch, as if a block of unit 0 started
  /// there with DC predictors of zero, up to the first block that starts
  /// at or past the chunk's end. A guess that is off usually soon decodes
  /// an impossible block; the decode then starts a new run of guesses
  /// where that block failed, so a chunk keeps looking for the exact
  /// block boundaries all through its bytes.
  void speculate(pipeline::ScanChunk& chunk, std::int16_t* blk, std::uint64_t* record) const {
    const std::size_t cap = speculation_capacity(chunk);
    with_reader(chunk.reader, [&](auto&& position, auto&& decode, auto&& skip_bit) {
      std::size_t k = 0;
      std::size_t u = 0;
      std::uint64_t run_start = kRunStart;
      while (k < cap) {
        const std::uint64_t bit = position();
        if (bit >= chunk.data_bits) break;
        record[k] = bit << kStartShift | run_start | u;
        const Unit& un = units[u];
        // `failed` ends up telling whether the last run recorded ended
        // on a block that did not decode.
        chunk.failed = !decode(blk + k * 64, chunk.dc[static_cast<std::size_t>(un.ci)],
                               comps[static_cast<std::size_t>(un.ci)]);
        if (!chunk.failed) {
          ++k;
          if (++u == static_cast<std::size_t>(units_per_mcu)) u = 0;
          run_start = 0;
          continue;
        }
        // The guess was wrong: the next run starts where this block
        // failed, one bit on at least, so the records stay increasing.
        if (position() == bit && !skip_bit()) break;  // a marker or the end of data
        u = 0;
        run_start = kRunStart;
        chunk.dc = {};
      }
      chunk.blocks = k;
    });
  }

  /// Restart-marked scans. Pre-scan the bytes for the RST markers (cheap:
  /// stuffing rules make them unambiguous without decoding); each
  /// segment then decodes exactly from DC predictors of zero, and chunks
  /// of whole segments run on the pool, writing disjoint block ranges.
  void decode_restart_chunks(int num_threads) {
    const std::size_t ri = static_cast<std::size_t>(info.restart_interval);
    const std::size_t total_mcus = static_cast<std::size_t>(mcus_x) * mcus_y;
    const std::size_t num_segments = (total_mcus + ri - 1) / ri;

    struct Segment {
      std::size_t begin, end;  // byte range within the scan, markers excluded
    };
    std::vector<Segment> segments;
    segments.reserve(num_segments);
    std::size_t seg_begin = 0;
    std::size_t p = 0;
    while (segments.size() + 1 < num_segments) {
      const void* ff = p < scan_size ? std::memchr(scan + p, 0xFF, scan_size - p) : nullptr;
      if (ff == nullptr) fail("missing restart marker");
      p = static_cast<std::size_t>(static_cast<const std::uint8_t*>(ff) - scan);
      if (p + 1 >= scan_size) fail("missing restart marker");
      const std::uint8_t next = scan[p + 1];
      if (next == 0x00) {  // stuffed data byte
        p += 2;
        continue;
      }
      if (next == 0xFF) {  // fill byte
        ++p;
        continue;
      }
      if (!is_rst(next)) fail("missing restart marker");
      if (next != kRST0 + static_cast<int>(segments.size() % 8))
        fail("restart marker out of sequence");
      // The segment ends at the first 0xFF of any fill run before the
      // marker (T.81 B.1.1.2): a data 0xFF is always stuffed with 0x00,
      // so an 0xFF followed by 0xFF is fill, never payload.
      std::size_t seg_end = p;
      while (seg_end > seg_begin && scan[seg_end - 1] == 0xFF) --seg_end;
      segments.push_back({seg_begin, seg_end});
      p += 2;
      seg_begin = p;
    }
    segments.push_back({seg_begin, scan_size});

    std::vector<pipeline::ScanChunk>& chunks = ctx_.decode_chunks;
    const std::size_t n = std::min(num_segments, pipeline::chunk_count(scan_size, total_blocks));
    chunks.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      chunks[i].first_segment = i * num_segments / n;
      chunks[i].end_segment = (i + 1) * num_segments / n;
    }
    const std::size_t units_u = static_cast<std::size_t>(units_per_mcu);
    runtime::parallel_for(
        0, n, 1,
        [&](std::size_t i) {
          pipeline::ScanChunk& chunk = chunks[i];
          try {
            for (std::size_t si = chunk.first_segment; si < chunk.end_segment; ++si) {
              const Segment& seg = segments[si];
              BitReader br(scan + seg.begin, seg.end - seg.begin);
              const std::size_t m0 = si * ri;
              const std::size_t count = (std::min(total_mcus, m0 + ri) - m0) * units_u;
              std::array<int, pipeline::kMaxComponents> dc{};
              PlaneWriter out(*this, m0 * units_u);
              const Run run = decode_run(
                  br, 0, count, dc, [](std::size_t, std::uint64_t) { return false; },
                  [&] { return out.next(); });
              if (run.failed) fail("corrupt entropy-coded data");
              if (si + 1 < segments.size()) {
                // The serial reader demanded a restart marker right after
                // the segment's last MCU; here the marker position is
                // fixed by the pre-scan, so undelivered payload before it
                // (beyond the <= 7 pad bits of the final byte) means the
                // segment over-ran its restart interval.
                const std::size_t unread_bytes = (seg.end - seg.begin) - br.position();
                if (br.buffered_bits() + 8 * static_cast<int>(unread_bytes) > 7)
                  fail("missing restart marker");
              }
            }
          } catch (...) {
            chunk.error = std::current_exception();
          }
        },
        num_threads);
    // The first failing chunk in scan order names the error, as the
    // serial walk would.
    for (const pipeline::ScanChunk& chunk : chunks)
      if (chunk.error) std::rethrow_exception(chunk.error);
  }

  /// Scans without restart markers, cut into `n` chunks (see
  /// pipeline/scan_chunks.hpp). Speculation needs a second thread: a call
  /// that cannot fan out, like a one-chunk scan, is the plain serial
  /// decode, chunk 0 running through the whole scan.
  void decode_speculative_chunks(std::size_t n, int num_threads) {
    std::vector<pipeline::ScanChunk>& chunks = ctx_.decode_chunks;
    chunks.assign(n, {});
    // Cut at fixed offsets, each moved past a 0xFF so that no stuffed
    // pair or fill run straddles a cut and every chunk starts on a data
    // byte boundary.
    std::size_t used = 0;
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t cut = i * scan_size / n;
      while (cut < scan_size && scan[cut - 1] == 0xFF) ++cut;
      if (cut <= chunks[used].begin || cut >= scan_size) continue;
      chunks[used].end = cut;
      chunks[++used].begin = cut;
    }
    chunks.resize(used + 1);
    chunks.back().end = scan_size;
    n = runtime::usable_threads(num_threads) > 1 ? chunks.size() : 1;

    std::size_t scratch_blocks = 0;
    for (std::size_t i = 1; i < n; ++i) {
      chunks[i].scratch = scratch_blocks;
      scratch_blocks += speculation_capacity(chunks[i]);
    }
    std::int16_t* const scratch = ctx_.decode_chunk_blocks.reserve(scratch_blocks * 64);
    std::uint64_t* const starts = ctx_.decode_chunk_starts.reserve(scratch_blocks);

    runtime::parallel_for(
        0, n, 1,
        [&](std::size_t i) {
          pipeline::ScanChunk& chunk = chunks[i];
          if (n > 1) count_data_bytes(chunk);
          else chunk.data_bits = std::numeric_limits<std::uint64_t>::max();
          chunk.reader = BitReader(scan + chunk.begin, scan_size - chunk.begin);
          if (i > 0) {
            speculate(chunk, scratch + chunk.scratch * 64, starts + chunk.scratch);
            return;
          }
          PlaneWriter out(*this, 0);
          const Run run = decode_run(
              chunk.reader, 0, total_blocks, chunk.dc,
              [&](std::size_t, std::uint64_t bit) { return bit >= chunk.data_bits; },
              [&] { return out.next(); });
          chunk.blocks = run.blocks;
          chunk.failed = run.failed;
        },
        num_threads);

    resolve_chunks(n, scratch, starts);

    // Copy every synced chunk's exact blocks to their place, with its DC
    // offsets (mod 2^16, as the int16 coefficient store wraps).
    runtime::parallel_for(
        1, n, 1,
        [&](std::size_t i) {
          const pipeline::ScanChunk& chunk = chunks[i];
          const std::int16_t* src = scratch + (chunk.scratch + chunk.sync) * 64;
          PlaneWriter out(*this, chunk.first_block);
          std::size_t u = chunk.first_block % static_cast<std::size_t>(units_per_mcu);
          for (std::size_t k = 0; k < chunk.placed; ++k, src += 64) {
            std::int16_t* dst = out.next();
            std::memcpy(dst, src, 64 * sizeof(std::int16_t));
            const auto offset = static_cast<std::uint16_t>(
                chunk.dc_offset[static_cast<std::size_t>(units[u].ci)]);
            dst[0] = static_cast<std::int16_t>(
                static_cast<std::uint16_t>(static_cast<std::uint16_t>(dst[0]) + offset));
            if (++u == static_cast<std::size_t>(units_per_mcu)) u = 0;
          }
        },
        num_threads);
  }

  /// Data bytes and markers of the chunk's byte range: the bit positions
  /// a chunk records count data bits only, so the exact decode can map
  /// them onto its own.
  void count_data_bytes(pipeline::ScanChunk& chunk) const {
    std::size_t skipped = 0;
    const std::uint8_t* p = scan + chunk.begin;
    const std::uint8_t* const end = scan + chunk.end;
    while (p < end) {
      const void* ff = std::memchr(p, 0xFF, static_cast<std::size_t>(end - p));
      if (ff == nullptr) break;
      p = static_cast<const std::uint8_t*>(ff);
      if (p + 1 >= scan + scan_size) break;  // a lone 0xFF ends the data
      if (p[1] == 0x00) {  // stuffing zero
        ++skipped;
        p += 2;
      } else if (p[1] == 0xFF) {  // fill byte
        ++skipped;
        ++p;
      } else {
        chunk.marker = true;
        break;
      }
    }
    chunk.data_bits = 8 * static_cast<std::uint64_t>(chunk.end - chunk.begin - skipped);
  }

  /// The exact decode, serially, from the end of chunk 0 over the `n`
  /// chunks decoded: up to each chunk's first recorded block start at the
  /// same data bit and the same unit of the MCU, and on from that chunk's
  /// end. Fails exactly where the serial decode fails; a speculative
  /// failure past the frame's last block, or in a chunk the exact decode
  /// never syncs with, is no error.
  void resolve_chunks(std::size_t n, const std::int16_t* scratch, const std::uint64_t* starts) {
    std::vector<pipeline::ScanChunk>& chunks = ctx_.decode_chunks;
    const std::size_t units_u = static_cast<std::size_t>(units_per_mcu);
    // Data bit at which each chunk starts, while no marker (the end of
    // the data the serial decode can read) lies in front of it.
    constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 1; i < n; ++i)
      chunks[i].first_bit = chunks[i - 1].marker || chunks[i - 1].first_bit == kNever
                                ? kNever
                                : chunks[i - 1].first_bit + chunks[i - 1].data_bits;
    const auto base = [&](std::size_t i) { return i < n ? chunks[i].first_bit : kNever; };

    pipeline::ScanChunk& first = chunks[0];
    std::size_t t = first.blocks;
    if (first.failed) fail("corrupt entropy-coded data");
    BitReader rd = first.reader;
    std::uint64_t origin = 0;  // data bit of rd's first byte
    std::array<int, pipeline::kMaxComponents> dc = first.dc;
    std::size_t c = 1;
    while (t < total_blocks) {
      // The next chunk the exact decode may sync with: the one whose
      // range holds its position or lies ahead of it.
      const std::uint64_t here = origin + rd.bit_position();
      while (c < n && here >= base(c + 1)) ++c;
      if (c >= n || base(c) == kNever) {
        PlaneWriter out(*this, t);
        const Run run = decode_run(
            rd, t % units_u, total_blocks - t, dc,
            [](std::size_t, std::uint64_t) { return false; }, [&] { return out.next(); });
        if (run.failed) fail("corrupt entropy-coded data");
        return;
      }
      pipeline::ScanChunk& chunk = chunks[c];
      const std::uint64_t* const records = starts + chunk.scratch;
      const std::uint64_t* const records_end = records + chunk.blocks;
      const std::uint64_t* rec = records;
      bool synced = false;
      PlaneWriter out(*this, t);
      const Run run = decode_run(
          rd, t % units_u, total_blocks - t, dc,
          [&](std::size_t k, std::uint64_t bit) {
            const std::uint64_t at = origin + bit;
            if (at >= base(c + 1)) return true;  // past the chunk: no sync
            if (at < base(c)) return false;
            rec = std::lower_bound(rec, records_end, (at - base(c)) << kStartShift);
            synced = rec != records_end && (*rec >> kStartShift) == at - base(c) &&
                     (*rec & kUnitMask) == (t + k) % units_u;
            return synced;
          },
          [&] { return out.next(); });
      if (run.failed) fail("corrupt entropy-coded data");
      t += run.blocks;
      if (!synced) {
        ++c;
        continue;
      }
      // Synced at block j of the chunk: the blocks of j's run from j on
      // are the exact ones, their DC off by what the run's guessed
      // predictors (zero at the run's start) missed.
      const std::size_t j = static_cast<std::size_t>(rec - records);
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        int guessed = 0;
        for (std::size_t k = j; k > 0 && j - k < units_u && !(records[k] & kRunStart); --k) {
          if (units[records[k - 1] & kUnitMask].ci == static_cast<int>(ci)) {
            guessed = scratch[(chunk.scratch + k - 1) * 64];
            break;
          }
        }
        chunk.dc_offset[ci] = dc[ci] - guessed;
      }
      std::size_t run_end = j + 1;
      while (run_end < chunk.blocks && !(records[run_end] & kRunStart)) ++run_end;
      chunk.sync = j;
      chunk.first_block = t;
      chunk.placed = std::min(run_end - j, total_blocks - t);
      t += chunk.placed;
      if (t == total_blocks) return;
      // The run ended where a block failed to decode; the exact decode
      // fails there too.
      if (run_end < chunk.blocks || chunk.failed) fail("corrupt entropy-coded data");
      rd = chunk.reader;
      origin = base(c);
      for (std::size_t ci = 0; ci < comps.size(); ++ci)
        dc[ci] = static_cast<std::int16_t>(chunk.dc[ci] + chunk.dc_offset[ci]);
      ++c;
    }
  }

 public:
  image::Image reconstruct(int num_threads) {
    // Checked up front, on the calling thread, before any band runs.
    const QuantTable* tables[pipeline::kMaxComponents] = {};
    std::size_t blocks_per_mcu_row = 0;
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      const FrameComponent& c = comps[ci];
      if (!info.quant_tables[c.tq]) fail("component references undefined DQT");
      tables[ci] = &*info.quant_tables[c.tq];
      ctx_.decode_fp[ci].reshape(c.blocks_x, c.blocks_y);
      ctx_.decode_planes[ci].reset(c.blocks_x * kBlockDim, c.blocks_y * kBlockDim);
      blocks_per_mcu_row += static_cast<std::size_t>(c.blocks_x) * c.v;
    }
    // Colour: luma must carry the maximum sampling factors; each chroma
    // plane is either full resolution (read in place) or exactly half in
    // both directions (4:2:0, upsampled row by row).
    bool half[2] = {false, false};
    if (comps.size() == 3) {
      if (comps[0].h != info.max_h || comps[0].v != info.max_v)
        fail("unsupported sampling factor combination");
      for (int c = 0; c < 2; ++c) {
        const FrameComponent& fc = comps[static_cast<std::size_t>(c) + 1];
        if (fc.h == info.max_h && fc.v == info.max_v) continue;
        if (2 * fc.h != info.max_h || 2 * fc.v != info.max_v)
          fail("unsupported sampling factor combination");
        half[c] = true;
      }
    }

    // The pixel stages run band by band (see pipeline/bands.hpp); every
    // band writes only its own rows of the context arenas, so the pixels
    // never depend on the thread count. First, per component: batched
    // dequantize into the float coefficient arena, in-place batched IDCT,
    // then untile (+128 level unshift) into the component's plane.
    const pipeline::BandPlan plan(blocks_per_mcu_row, mcus_y);
    plan.run(num_threads, [&](const pipeline::Band& band) {
      for (std::size_t ci = 0; ci < comps.size(); ++ci) {
        const FrameComponent& c = comps[ci];
        pipeline::CoeffPlane& fp = ctx_.decode_fp[ci];
        const int by0 = band.first_row * c.v;
        const int by1 = band.end_row * c.v;
        const std::size_t first = static_cast<std::size_t>(by0) * c.blocks_x;
        const std::size_t count = static_cast<std::size_t>(by1 - by0) * c.blocks_x;
        dequantize_batch(c.coeffs + first * 64, count, *tables[ci], fp.block(first));
        idct_batch(fp.block(first), count);
        image::untile_block_rows_from(fp.data(), c.blocks_x, by0, by1,
                                      ctx_.decode_planes[ci], 128.0f);
      }
    });

    // Then one pass over the output rows of each band. Full-resolution
    // chroma is read in place; 4:2:0 chroma stays at its native size and
    // is upsampled row by row (crop-aware: only the top-left
    // ceil(W/2) x ceil(H/2) samples are read) into the band's own row
    // buffers, straight ahead of the colour convert. Same samples as
    // crop -> image::upsample_2x2 -> to_rgb.
    const int width = info.width;
    const int height = info.height;
    const int mcu_h = info.max_v * kBlockDim;
    const std::size_t row_floats = static_cast<std::size_t>(width);
    auto plane_row = [&](std::size_t ci, int y) {
      const PlaneF& p = ctx_.decode_planes[ci];
      return p.data().data() + static_cast<std::size_t>(y) * p.width();
    };
    const simd::KernelTable& k = simd::kernels();
    image::Image img(width, height, static_cast<int>(comps.size()));
    std::uint8_t* out = img.data().data();
    if (comps.size() == 1) {
      plan.run(num_threads, [&](const pipeline::Band& band) {
        for (int y = band.first_row * mcu_h; y < std::min(height, band.end_row * mcu_h); ++y)
          k.f32_to_u8_row(plane_row(0, y), width, out + static_cast<std::size_t>(y) * width);
      });
      return img;
    }
    // Per band, per chroma plane: one output row and the streamer's two
    // cached source rows.
    ctx_.decode_rows.resize(static_cast<std::size_t>(plan.bands()) * 6 * row_floats);
    plan.run(num_threads, [&](const pipeline::Band& band) {
      float* rows = ctx_.decode_rows.data() + static_cast<std::size_t>(band.index) * 6 * row_floats;
      std::optional<image::Upsample2x2Rows> upsample[2];
      for (int c = 0; c < 2; ++c) {
        if (!half[c]) continue;
        const PlaneF& p = ctx_.decode_planes[static_cast<std::size_t>(c) + 1];
        upsample[c].emplace(p.data().data(), static_cast<std::size_t>(p.width()),
                            (width + 1) / 2, (height + 1) / 2, width,
                            rows + (3 * c + 1) * row_floats);
      }
      for (int y = band.first_row * mcu_h; y < std::min(height, band.end_row * mcu_h); ++y) {
        const float* chroma[2];
        for (int c = 0; c < 2; ++c) {
          if (!upsample[c]) {
            chroma[c] = plane_row(static_cast<std::size_t>(c) + 1, y);
            continue;
          }
          float* blended = rows + 3 * c * row_floats;
          upsample[c]->row(y, blended);
          chroma[c] = blended;
        }
        k.ycbcr_to_rgb_row(plane_row(0, y), chroma[0], chroma[1], width,
                           out + static_cast<std::size_t>(y) * width * 3);
      }
    });
    return img;
  }

 private:
  std::uint8_t read_u8() {
    if (pos_ >= size_) fail("unexpected end of stream");
    return data_[pos_++];
  }

  std::uint16_t read_u16() {
    const std::uint16_t hi = read_u8();
    return static_cast<std::uint16_t>((hi << 8) | read_u8());
  }

  std::uint8_t next_marker() {
    // Skip fill bytes and any stray non-FF bytes between segments.
    while (pos_ < size_) {
      std::uint8_t b = read_u8();
      if (b != 0xFF) continue;
      while (pos_ < size_ && data_[pos_] == 0xFF) ++pos_;
      if (pos_ >= size_) break;
      b = read_u8();
      if (b != 0x00) return b;
    }
    fail("ran out of markers");
  }

  void skip_segment() {
    const std::uint16_t len = read_u16();
    if (len < 2) fail("bad segment length");
    if (pos_ + len - 2 > size_) fail("segment exceeds stream");
    pos_ += len - 2u;
  }

  void read_com() {
    const std::uint16_t len = read_u16();
    if (len < 2 || pos_ + len - 2 > size_) fail("bad COM segment");
    info.comment.assign(reinterpret_cast<const char*>(data_ + pos_), len - 2u);
    pos_ += len - 2u;
  }

  void read_dqt() {
    const std::uint16_t len = read_u16();
    std::size_t end = pos_ + len - 2u;
    if (len < 2 || end > size_) fail("bad DQT segment");
    while (pos_ < end) {
      const std::uint8_t pq_tq = read_u8();
      const int pq = pq_tq >> 4;
      const int tq = pq_tq & 0x0F;
      if (pq > 1 || tq > 3) fail("bad DQT precision/index");
      std::array<std::uint16_t, 64> natural{};
      for (int k = 0; k < 64; ++k) {
        const std::uint16_t q = pq ? read_u16() : read_u8();
        natural[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(k)])] = q;
      }
      info.quant_tables[tq] = QuantTable(natural);
    }
  }

  void read_dht() {
    const std::uint16_t len = read_u16();
    std::size_t end = pos_ + len - 2u;
    if (len < 2 || end > size_) fail("bad DHT segment");
    while (pos_ < end) {
      const std::uint8_t tc_th = read_u8();
      const int tc = tc_th >> 4;
      const int th = tc_th & 0x0F;
      if (tc > 1 || th > 3) fail("bad DHT class/index");
      HuffmanSpec spec;
      int total = 0;
      for (int l = 1; l <= 16; ++l) {
        spec.counts[static_cast<std::size_t>(l)] = read_u8();
        total += spec.counts[static_cast<std::size_t>(l)];
      }
      if (total > 256) fail("bad DHT symbol count");
      spec.symbols.reserve(static_cast<std::size_t>(total));
      for (int i = 0; i < total; ++i) spec.symbols.push_back(read_u8());
      try {
        spec.validate();
      } catch (const std::invalid_argument& e) {
        fail(std::string("invalid Huffman table: ") + e.what());
      }
      (tc == 0 ? dc_specs : ac_specs)[th] = std::move(spec);
    }
  }

  void read_sof() {
    const std::uint16_t len = read_u16();
    if (len < 8) fail("bad SOF segment");
    const int precision = read_u8();
    if (precision != 8) fail("only 8-bit precision supported");
    info.height = read_u16();
    info.width = read_u16();
    if (info.width == 0 || info.height == 0) fail("zero frame dimension");
    info.components = read_u8();
    if (info.components != 1 && info.components != 3)
      fail("only 1- or 3-component frames supported");
    comps.clear();
    for (int i = 0; i < info.components; ++i) {
      FrameComponent c;
      c.id = read_u8();
      const std::uint8_t hv = read_u8();
      c.h = hv >> 4;
      c.v = hv & 0x0F;
      c.tq = read_u8();
      if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2 || c.tq > 3)
        fail("unsupported component parameters");
      comps.push_back(c);
    }
    info.max_h = 1;
    info.max_v = 1;
    for (const FrameComponent& c : comps) {
      info.max_h = std::max(info.max_h, c.h);
      info.max_v = std::max(info.max_v, c.v);
    }
    mcus_x = (info.width + info.max_h * kBlockDim - 1) / (info.max_h * kBlockDim);
    mcus_y = (info.height + info.max_v * kBlockDim - 1) / (info.max_v * kBlockDim);
    for (FrameComponent& c : comps) {
      c.blocks_x = mcus_x * c.h;
      c.blocks_y = mcus_y * c.v;
    }
  }

  void read_dri() {
    const std::uint16_t len = read_u16();
    if (len != 4) fail("bad DRI segment");
    info.restart_interval = read_u16();
  }

  void read_sos() {
    if (comps.empty()) fail("SOS before SOF");
    const std::uint16_t len = read_u16();
    const int ns = read_u8();
    if (ns != static_cast<int>(comps.size()))
      fail("scan component count differs from frame (progressive not supported)");
    if (len != 6 + 2 * ns) fail("bad SOS length");
    for (int i = 0; i < ns; ++i) {
      const int cs = read_u8();
      const std::uint8_t td_ta = read_u8();
      auto it = std::find_if(comps.begin(), comps.end(),
                             [cs](const FrameComponent& c) { return c.id == cs; });
      if (it == comps.end()) fail("scan references unknown component");
      it->dc_table = td_ta >> 4;
      it->ac_table = td_ta & 0x0F;
      if (it->dc_table > 3 || it->ac_table > 3) fail("bad scan table index");
    }
    const int ss = read_u8();
    const int se = read_u8();
    const int ah_al = read_u8();
    if (ss != 0 || se != 63 || ah_al != 0)
      fail("only sequential baseline scans supported");
  }

  pipeline::CodecContext& ctx_;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;

  // Scan layout, set by decode_scan.
  std::array<Unit, 12> units{};  // up to 3 components of up to 2x2 blocks
  int units_per_mcu = 0;
  bool reference = false;  // a table was built at lookup width 0
  const std::uint8_t* scan = nullptr;
  std::size_t scan_size = 0;
  std::size_t total_blocks = 0;
};

}  // namespace

image::Image decode(ByteSpan bytes, pipeline::CodecContext& ctx, int num_threads) {
  Parser parser(bytes.data, bytes.size, ctx);
  {
    obs::Span span(obs::Stage::kDecodeEntropy, bytes.size);
    if (!parser.parse_headers()) fail("stream contains no scan");
    parser.decode_scan(num_threads);
  }
  obs::Span span(obs::Stage::kDecodePixels);
  return parser.reconstruct(num_threads);
}

image::Image decode(ByteSpan bytes) {
  return decode(bytes, pipeline::thread_codec_context());
}

JpegInfo decode_coefficients(ByteSpan bytes, pipeline::CodecContext& ctx,
                             int num_threads) {
  Parser parser(bytes.data, bytes.size, ctx);
  if (!parser.parse_headers()) fail("stream contains no scan");
  parser.decode_scan(num_threads);
  return parser.info;
}

JpegInfo parse_info(ByteSpan bytes) {
  // Header-only parse: never touches the context arenas.
  Parser parser(bytes.data, bytes.size, pipeline::thread_codec_context());
  parser.parse_headers();
  return parser.info;
}

std::size_t scan_byte_count(ByteSpan bytes) {
  Parser parser(bytes.data, bytes.size, pipeline::thread_codec_context());
  if (!parser.parse_headers()) fail("stream contains no scan");
  if (bytes.size < parser.scan_start + 2) fail("truncated scan");
  return bytes.size - parser.scan_start - 2;  // exclude the trailing EOI
}

}  // namespace dnj::jpeg
