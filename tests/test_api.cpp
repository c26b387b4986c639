// Public API façade suite.
//
// Pins the three contracts the api/ layer makes:
//  1. Byte identity — façade-path outputs (C++ Session/Codec, the async
//     Service view, and the C ABI) are bit-identical to the direct
//     internal calls (jpeg::encode/decode, core::transcode_bytes).
//  2. The Status error model — malformed inputs come back as the
//     documented typed codes through both the C++ façade and the C ABI;
//     no exception escapes either boundary.
//  3. One options representation — EncodeOptions::digest() equals the
//     serve layer's config digest for the equivalent EncoderConfig, and
//     every option field perturbs the digest (so a field added to
//     EncoderConfig without extending append_config_bytes is caught).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "api/convert.hpp"
#include "api/dnj.hpp"
#include "api/dnj_c.h"
#include "core/deepnjpeg.hpp"
#include "core/transcode.hpp"
#include "data/synthetic.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/encoder.hpp"
#include "serve/digest.hpp"

namespace dnj {
namespace {

data::Dataset test_dataset(int per_class = 4, int channels = 1) {
  data::GeneratorConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.channels = channels;
  cfg.num_classes = 4;
  cfg.seed = 0xA11CE;
  return data::SyntheticDatasetGenerator(cfg).generate(per_class);
}

image::Image gray_image() { return test_dataset(1, 1).samples[0].image; }
image::Image rgb_image() { return test_dataset(1, 3).samples[0].image; }

/// (api options, equivalent internal config) pairs covering every field.
struct OptionCase {
  const char* name;
  api::EncodeOptions options;
  jpeg::EncoderConfig config;
};

std::vector<OptionCase> option_cases() {
  std::vector<OptionCase> cases;
  {
    OptionCase c;
    c.name = "defaults";
    cases.push_back(c);
  }
  {
    OptionCase c;
    c.name = "q85-444";
    c.options.quality(85).chroma_420(false);
    c.config.quality = 85;
    c.config.subsampling = jpeg::Subsampling::k444;
    cases.push_back(c);
  }
  {
    OptionCase c;
    c.name = "optimized-restart-comment";
    c.options.quality(60).optimize_huffman(true).restart_interval(4).comment("api");
    c.config.quality = 60;
    c.config.optimize_huffman = true;
    c.config.restart_interval = 4;
    c.config.comment = "api";
    cases.push_back(c);
  }
  {
    OptionCase c;
    c.name = "custom-tables";
    const jpeg::QuantTable luma = jpeg::QuantTable::annex_k_luma().scaled(40);
    const jpeg::QuantTable chroma = jpeg::QuantTable::annex_k_chroma().scaled(40);
    c.options.custom_tables(luma.natural(), chroma.natural()).chroma_420(false);
    c.config.use_custom_tables = true;
    c.config.luma_table = luma;
    c.config.chroma_table = chroma;
    c.config.subsampling = jpeg::Subsampling::k444;
    cases.push_back(c);
  }
  return cases;
}

// ---------------------------------------------------------------------------
// 1. Byte identity: façade == direct calls.
// ---------------------------------------------------------------------------

TEST(ApiCodec, EncodeMatchesDirectCallAcrossConfigs) {
  api::Session session;
  const api::Codec codec = session.codec();
  for (const image::Image& img : {gray_image(), rgb_image()}) {
    for (const OptionCase& c : option_cases()) {
      SCOPED_TRACE(c.name);
      api::Result<std::vector<std::uint8_t>> got = codec.encode(img.view(), c.options);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(got.value(), jpeg::encode(img, c.config));
    }
  }
}

TEST(ApiCodec, DecodeMatchesDirectCall) {
  api::Session session;
  const api::Codec codec = session.codec();
  for (const image::Image& img : {gray_image(), rgb_image()}) {
    const std::vector<std::uint8_t> stream = jpeg::encode(img, {});
    api::Result<api::DecodedImage> got = codec.decode(stream);
    ASSERT_TRUE(got.ok()) << got.status().message();
    const image::Image want = jpeg::decode(stream);
    EXPECT_EQ(got->width, want.width());
    EXPECT_EQ(got->height, want.height());
    EXPECT_EQ(got->channels, want.channels());
    EXPECT_EQ(got->pixels, want.data());
  }
}

TEST(ApiCodec, TranscodeMatchesDirectCall) {
  api::Session session;
  const api::Codec codec = session.codec();
  const std::vector<std::uint8_t> stream = jpeg::encode(rgb_image(), {});
  for (const OptionCase& c : option_cases()) {
    SCOPED_TRACE(c.name);
    api::Result<std::vector<std::uint8_t>> got = codec.transcode(stream, c.options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value(), core::transcode_bytes(stream, c.config));
  }
}

TEST(ApiCodec, ByteSpanEntryIsZeroCopyEquivalent) {
  // A raw {ptr, size} span decodes identically to the owning vector.
  api::Session session;
  const std::vector<std::uint8_t> stream = jpeg::encode(gray_image(), {});
  api::Result<api::DecodedImage> from_vec = session.codec().decode(stream);
  api::Result<api::DecodedImage> from_span =
      session.codec().decode(api::ByteSpan{stream.data(), stream.size()});
  ASSERT_TRUE(from_vec.ok());
  ASSERT_TRUE(from_span.ok());
  EXPECT_EQ(from_vec->pixels, from_span->pixels);
}

TEST(ApiCodec, InspectReportsHeaderFacts) {
  api::Session session;
  jpeg::EncoderConfig cfg;
  cfg.restart_interval = 2;
  cfg.comment = "hello";
  const image::Image img = rgb_image();
  api::Result<api::StreamInfo> info = session.codec().inspect(jpeg::encode(img, cfg));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->width, img.width());
  EXPECT_EQ(info->height, img.height());
  EXPECT_EQ(info->components, 3);
  EXPECT_EQ(info->restart_interval, 2);
  EXPECT_EQ(info->comment, "hello");
}

TEST(ApiDesigner, MatchesCoreDesignFlow) {
  const data::Dataset ds = test_dataset();
  api::Session session;
  api::TableDesigner designer = session.designer();
  for (const data::Sample& s : ds.samples)
    ASSERT_TRUE(designer.add(s.image.view(), s.label).ok());
  EXPECT_EQ(designer.image_count(), ds.size());

  api::Result<api::TableDesign> got = designer.design();
  ASSERT_TRUE(got.ok()) << got.status().message();
  const core::DesignResult want = core::DeepNJpeg::design(ds);
  EXPECT_EQ(got->table, want.table.natural());
  EXPECT_EQ(got->t1, want.params.t1);
  EXPECT_EQ(got->t2, want.params.t2);
  EXPECT_EQ(got->images_analyzed, want.profile.images_analyzed);
  EXPECT_EQ(got->blocks_analyzed, want.profile.blocks_analyzed);

  // The designed options reproduce the paper deployment config
  // (core::custom_table_config) byte for byte.
  const image::Image img = ds.samples[0].image;
  api::Result<std::vector<std::uint8_t>> bytes =
      session.codec().encode(img.view(), got->encode_options());
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), jpeg::encode(img, core::custom_table_config(want.table)));
}

// ---------------------------------------------------------------------------
// 2. Error model: documented codes through the C++ façade.
// ---------------------------------------------------------------------------

TEST(ApiErrors, TruncatedAndGarbageStreamsAreDecodeErrors) {
  api::Session session;
  const api::Codec codec = session.codec();
  std::vector<std::uint8_t> stream = jpeg::encode(gray_image(), {});

  std::vector<std::uint8_t> truncated(stream.begin(),
                                      stream.begin() + static_cast<long>(stream.size() / 2));
  EXPECT_EQ(codec.decode(truncated).status().code(), api::StatusCode::kDecodeError);

  std::vector<std::uint8_t> garbage(257);
  for (std::size_t i = 0; i < garbage.size(); ++i)
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 11);
  EXPECT_EQ(codec.decode(garbage).status().code(), api::StatusCode::kDecodeError);
  EXPECT_EQ(codec.transcode(garbage, {}).status().code(), api::StatusCode::kDecodeError);
  EXPECT_EQ(codec.inspect(garbage).status().code(), api::StatusCode::kDecodeError);

  // Valid prefix, corrupted entropy tail: still a typed decode error.
  stream[stream.size() - 8] ^= 0xFF;
  const api::Status tail = codec.decode(stream).status();
  EXPECT_TRUE(tail.code() == api::StatusCode::kDecodeError || tail.ok());
}

TEST(ApiErrors, EmptyAndNullInputsAreInvalidArguments) {
  api::Session session;
  const api::Codec codec = session.codec();
  EXPECT_EQ(codec.decode(api::ByteSpan{}).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.encode(api::ImageView{}).status().code(),
            api::StatusCode::kInvalidArgument);
  const std::uint8_t px[4] = {1, 2, 3, 4};
  EXPECT_EQ(codec.encode(api::ImageView{nullptr, 2, 2, 1}).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.encode(api::ImageView{px, 2, 2, 2}).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.encode(api::ImageView{px, -2, 2, 1}).status().code(),
            api::StatusCode::kInvalidArgument);
}

TEST(ApiErrors, OversizedDimensionsAreInvalidArguments) {
  api::Session session;
  const std::uint8_t px[1] = {0};
  // Validation rejects on claimed dimensions before touching pixels, so a
  // tiny buffer with absurd claimed extents is safe to pass.
  const api::Status s =
      session.codec().encode(api::ImageView{px, 70000, 8, 1}).status();
  EXPECT_EQ(s.code(), api::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("65535"), std::string::npos);
}

TEST(ApiErrors, InvalidOptionsAreInvalidArguments) {
  api::Session session;
  const image::Image img = gray_image();
  const api::Codec codec = session.codec();
  EXPECT_EQ(codec.encode(img.view(), api::EncodeOptions().quality(0)).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(codec.encode(img.view(), api::EncodeOptions().quality(101)).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(
      codec.encode(img.view(), api::EncodeOptions().restart_interval(-1)).status().code(),
      api::StatusCode::kInvalidArgument);
  const std::vector<std::uint8_t> stream = jpeg::encode(img, {});
  EXPECT_EQ(codec.transcode(stream, api::EncodeOptions().quality(0)).status().code(),
            api::StatusCode::kInvalidArgument);
}

TEST(ApiErrors, DesignerValidatesInputs) {
  api::Session session;
  api::TableDesigner designer = session.designer();
  EXPECT_EQ(designer.design().status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_EQ(designer.add(api::ImageView{}).code(), api::StatusCode::kInvalidArgument);
  const std::uint8_t px[4] = {9, 9, 9, 9};
  EXPECT_EQ(designer.add(api::ImageView{px, 2, 2, 1}, -1).code(),
            api::StatusCode::kInvalidArgument);
  ASSERT_TRUE(designer.add(api::ImageView{px, 2, 2, 1}).ok());
  EXPECT_EQ(designer.design(api::DesignOptions().sample_interval(0)).status().code(),
            api::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// 3. One options representation: digests.
// ---------------------------------------------------------------------------

TEST(ApiOptions, DigestEqualsServeConfigDigest) {
  for (const OptionCase& c : option_cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.options.digest(), serve::digest_config(c.config));
    // And the conversion round trip is lossless (the serve migration
    // depends on it).
    EXPECT_EQ(serve::digest_config(api::detail::to_config(
                  api::detail::from_config(c.config))),
              serve::digest_config(c.config));
  }
}

TEST(ApiOptions, EveryFieldPerturbsTheDigest) {
  // Guards the single-source-of-truth property of append_config_bytes: a
  // (new or existing) option field that does not reach the canonical
  // serialization leaves the digest unchanged and fails here.
  const api::EncodeOptions base;
  const std::uint64_t d0 = base.digest();
  EXPECT_NE(api::EncodeOptions(base).quality(76).digest(), d0);
  EXPECT_NE(api::EncodeOptions(base).chroma_420(false).digest(), d0);
  EXPECT_NE(api::EncodeOptions(base).optimize_huffman(true).digest(), d0);
  EXPECT_NE(api::EncodeOptions(base).restart_interval(1).digest(), d0);
  EXPECT_NE(api::EncodeOptions(base).comment("x").digest(), d0);
  api::QuantTableValues flat{};
  flat.fill(16);
  api::QuantTableValues flat2 = flat;
  flat2[63] = 17;
  const std::uint64_t dt = api::EncodeOptions(base).custom_tables(flat, flat).digest();
  EXPECT_NE(dt, d0);
  EXPECT_NE(api::EncodeOptions(base).custom_tables(flat2, flat).digest(), dt);
  EXPECT_NE(api::EncodeOptions(base).custom_tables(flat, flat2).digest(), dt);
  // Length-prefixing keeps adjacent variable-width fields unambiguous.
  EXPECT_NE(api::EncodeOptions(base).comment("ab").digest(),
            api::EncodeOptions(base).comment("a").restart_interval(1).digest());
}

// ---------------------------------------------------------------------------
// Async Service view: payload identity + typed refusals.
// ---------------------------------------------------------------------------

TEST(ApiService, RepliesMatchSynchronousCodec) {
  api::Session session;
  const api::Codec codec = session.codec();
  const image::Image img = rgb_image();
  const api::EncodeOptions options = api::EncodeOptions().quality(85).chroma_420(false);
  const std::vector<std::uint8_t> stream = jpeg::encode(img, {});

  api::Service service(api::ServiceOptions().workers(2));
  api::Pending p_enc = service.encode(img.view(), options);
  api::Pending p_dec = service.decode(stream);
  api::Pending p_x = service.transcode(stream, options);

  api::ServiceReply enc = p_enc.get();
  ASSERT_TRUE(enc.status.ok()) << enc.status.message();
  EXPECT_EQ(enc.bytes, codec.encode(img.view(), options).value());

  api::ServiceReply dec = p_dec.get();
  ASSERT_TRUE(dec.status.ok());
  EXPECT_EQ(dec.image.pixels, codec.decode(stream)->pixels);

  api::ServiceReply x = p_x.get();
  ASSERT_TRUE(x.status.ok());
  EXPECT_EQ(x.bytes, codec.transcode(stream, options).value());

  const api::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.completed, 3u);
}

TEST(ApiService, TypedRefusalsAndValidation) {
  api::Service service(api::ServiceOptions().workers(1));
  // Invalid input never reaches the queue.
  api::ServiceReply bad = service.encode(api::ImageView{}, {}).get();
  EXPECT_EQ(bad.status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.metrics().submitted, 0u);
  // Handler-level failure comes back typed (kInternal carries the message).
  std::vector<std::uint8_t> garbage(64, 0x5A);
  api::ServiceReply err = service.decode(garbage).get();
  EXPECT_EQ(err.status.code(), api::StatusCode::kInternal);
  EXPECT_FALSE(err.status.message().empty());
  // Post-shutdown submissions are kShutdown.
  service.shutdown();
  api::ServiceReply late = service.decode(garbage).get();
  EXPECT_EQ(late.status.code(), api::StatusCode::kShutdown);
  // A consumed/empty Pending reports instead of crashing.
  api::Pending empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.get().status.code(), api::StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// C ABI: identity, error codes, no exception escapes extern "C".
// ---------------------------------------------------------------------------

struct CSession {
  dnj_session_t* s = dnj_session_new();
  ~CSession() { dnj_session_free(s); }
};

TEST(ApiCAbi, VersionAndStatusNames) {
  EXPECT_EQ(dnj_abi_version(), DNJ_ABI_VERSION);
  EXPECT_STREQ(dnj_status_name(DNJ_OK), "ok");
  EXPECT_STREQ(dnj_status_name(DNJ_INVALID_ARGUMENT), "invalid_argument");
  EXPECT_STREQ(dnj_status_name(DNJ_DECODE_ERROR), "decode_error");
  EXPECT_STREQ(dnj_status_name(static_cast<dnj_status_t>(99)), "unknown");
}

TEST(ApiCAbi, EncodeDecodeTranscodeMatchDirectCalls) {
  CSession cs;
  ASSERT_NE(cs.s, nullptr);
  const image::Image img = gray_image();

  dnj_options_t* opts = dnj_options_new();
  ASSERT_NE(opts, nullptr);
  EXPECT_EQ(dnj_options_set_quality(opts, 85), DNJ_OK);
  EXPECT_EQ(dnj_options_set_chroma_420(opts, 0), DNJ_OK);

  jpeg::EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsampling = jpeg::Subsampling::k444;
  const std::vector<std::uint8_t> want = jpeg::encode(img, cfg);

  dnj_buffer_t buf = {nullptr, 0};
  ASSERT_EQ(dnj_encode(cs.s, img.data().data(), img.width(), img.height(),
                       img.channels(), opts, &buf),
            DNJ_OK);
  ASSERT_EQ(buf.size, want.size());
  EXPECT_EQ(std::memcmp(buf.data, want.data(), want.size()), 0);

  dnj_image_t decoded = {nullptr, 0, 0, 0};
  ASSERT_EQ(dnj_decode(cs.s, buf.data, buf.size, &decoded), DNJ_OK);
  const image::Image want_img = jpeg::decode(want);
  ASSERT_EQ(decoded.width, want_img.width());
  ASSERT_EQ(decoded.height, want_img.height());
  ASSERT_EQ(decoded.channels, want_img.channels());
  EXPECT_EQ(std::memcmp(decoded.pixels, want_img.data().data(), want_img.data().size()), 0);

  dnj_buffer_t xcoded = {nullptr, 0};
  ASSERT_EQ(dnj_transcode(cs.s, buf.data, buf.size, nullptr, &xcoded), DNJ_OK);
  const std::vector<std::uint8_t> want_x = core::transcode_bytes(want, {});
  ASSERT_EQ(xcoded.size, want_x.size());
  EXPECT_EQ(std::memcmp(xcoded.data, want_x.data(), want_x.size()), 0);

  // Options digest parity across the ABI.
  EXPECT_EQ(dnj_options_digest(opts),
            api::EncodeOptions().quality(85).chroma_420(false).digest());

  dnj_buffer_free(&xcoded);
  dnj_image_free(&decoded);
  dnj_buffer_free(&buf);
  dnj_options_free(opts);
}

TEST(ApiCAbi, ErrorPathsReturnDocumentedCodes) {
  CSession cs;
  ASSERT_NE(cs.s, nullptr);
  EXPECT_STREQ(dnj_last_error(cs.s), "");

  // Garbage and truncated streams: DNJ_DECODE_ERROR, message recorded.
  std::vector<std::uint8_t> garbage(128, 0xAB);
  dnj_image_t out_img = {nullptr, 0, 0, 0};
  EXPECT_EQ(dnj_decode(cs.s, garbage.data(), garbage.size(), &out_img), DNJ_DECODE_ERROR);
  EXPECT_STRNE(dnj_last_error(cs.s), "");
  const std::vector<std::uint8_t> stream = jpeg::encode(gray_image(), {});
  EXPECT_EQ(dnj_decode(cs.s, stream.data(), stream.size() / 2, &out_img),
            DNJ_DECODE_ERROR);
  dnj_buffer_t out_buf = {nullptr, 0};
  EXPECT_EQ(dnj_transcode(cs.s, garbage.data(), garbage.size(), nullptr, &out_buf),
            DNJ_DECODE_ERROR);

  // Invalid image arguments: DNJ_INVALID_ARGUMENT.
  const std::uint8_t px[4] = {0, 0, 0, 0};
  EXPECT_EQ(dnj_encode(cs.s, nullptr, 2, 2, 1, nullptr, &out_buf), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_encode(cs.s, px, 70000, 2, 1, nullptr, &out_buf), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_encode(cs.s, px, 2, 2, 4, nullptr, &out_buf), DNJ_INVALID_ARGUMENT);

  // Invalid options at the operation boundary.
  dnj_options_t* opts = dnj_options_new();
  EXPECT_EQ(dnj_options_set_quality(opts, 0), DNJ_OK);  // stored, not yet validated
  EXPECT_EQ(dnj_encode(cs.s, px, 2, 2, 1, opts, &out_buf), DNJ_INVALID_ARGUMENT);
  dnj_options_free(opts);

  // NULL handles are inert, never UB.
  EXPECT_EQ(dnj_encode(nullptr, px, 2, 2, 1, nullptr, &out_buf), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_options_set_quality(nullptr, 50), DNJ_INVALID_ARGUMENT);
  dnj_buffer_free(nullptr);
  dnj_image_free(nullptr);
  dnj_session_free(nullptr);
  dnj_options_free(nullptr);
  dnj_designer_free(nullptr);
}

TEST(ApiCAbi, DesignerMatchesCppDesigner) {
  const data::Dataset ds = test_dataset();
  dnj_designer_t* designer = dnj_designer_new();
  ASSERT_NE(designer, nullptr);
  EXPECT_EQ(dnj_designer_design(designer, nullptr), DNJ_INVALID_ARGUMENT);
  std::uint16_t table[64] = {};
  EXPECT_EQ(dnj_designer_design(designer, table), DNJ_INVALID_ARGUMENT);  // empty

  for (const data::Sample& s : ds.samples)
    ASSERT_EQ(dnj_designer_add(designer, s.image.data().data(), s.image.width(),
                               s.image.height(), s.image.channels(), s.label),
              DNJ_OK);
  ASSERT_EQ(dnj_designer_design(designer, table), DNJ_OK);

  const core::DesignResult want = core::DeepNJpeg::design(ds);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(table[k], want.table.natural()[static_cast<std::size_t>(k)]);

  // design_options installs the deployment configuration.
  dnj_options_t* opts = dnj_options_new();
  ASSERT_EQ(dnj_designer_design_options(designer, opts), DNJ_OK);
  EXPECT_EQ(dnj_options_digest(opts),
            serve::digest_config(core::custom_table_config(want.table)));
  dnj_options_free(opts);
  dnj_designer_free(designer);
}

// ---------------------------------------------------------------------------
// Multi-tenant registry: CRUD, the determinism reference, served identity.
// ---------------------------------------------------------------------------

TEST(ApiRegistry, CrudValidationAndSharing) {
  api::Registry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.names().empty());
  EXPECT_EQ(registry.put("", {}).status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.get("nope").status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.remove("nope").code(), api::StatusCode::kInvalidArgument);

  const api::Result<std::uint64_t> v1 =
      registry.put("alpha", api::EncodeOptions().quality(85), /*quota_bytes=*/4096);
  ASSERT_TRUE(v1.ok()) << v1.status().message();
  const api::Result<std::uint64_t> v2 = registry.put("beta", {});
  ASSERT_TRUE(v2.ok());
  EXPECT_GT(v2.value(), v1.value()) << "versions are registry-global monotonic";
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"alpha", "beta"}));

  // get() reports the NORMALIZED snapshot: custom tables materialized
  // (Annex K when none were given), quality pinned to 50.
  const api::Result<api::TenantInfo> info = registry.get("alpha");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "alpha");
  EXPECT_EQ(info->version, v1.value());
  EXPECT_EQ(info->quota_bytes, 4096u);
  EXPECT_TRUE(info->options.uses_custom_tables());
  EXPECT_EQ(info->options.quality(), 50);

  // Re-registration replaces the entry under a fresh (higher) version.
  const api::Result<std::uint64_t> v3 = registry.put("alpha", {});
  ASSERT_TRUE(v3.ok());
  EXPECT_GT(v3.value(), v2.value());
  EXPECT_EQ(registry.size(), 2u);

  // Copies share the underlying registry (shared-handle semantics).
  api::Registry shared = registry;
  ASSERT_TRUE(shared.remove("beta").ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"alpha"}));
}

TEST(ApiRegistry, EncodeOptionsForIsTheDeterminismReference) {
  api::Registry registry;
  const jpeg::QuantTable luma = jpeg::QuantTable::annex_k_luma().scaled(30);
  const jpeg::QuantTable chroma = jpeg::QuantTable::annex_k_chroma().scaled(30);
  ASSERT_TRUE(registry
                  .put("vision", api::EncodeOptions()
                                     .custom_tables(luma.natural(), chroma.natural())
                                     .chroma_420(false))
                  .ok());

  // Validation at the lookup boundary.
  EXPECT_EQ(registry.encode_options_for("ghost", 50).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.encode_options_for("vision", 0).status().code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.encode_options_for("vision", 101).status().code(),
            api::StatusCode::kInvalidArgument);

  // Quality 50 reproduces the base tables verbatim; any other quality is
  // the IJG scaling of the base pair.
  const api::Result<api::EncodeOptions> at50 = registry.encode_options_for("vision", 50);
  ASSERT_TRUE(at50.ok());
  EXPECT_EQ(at50->digest(), registry.get("vision")->options.digest());
  const api::Result<api::EncodeOptions> at80 = registry.encode_options_for("vision", 80);
  ASSERT_TRUE(at80.ok());
  // (quality stays at the normalized 50 — it plays no part in a
  // custom-table encode but does participate in the digest.)
  EXPECT_EQ(at80->digest(), api::EncodeOptions()
                                .quality(50)
                                .custom_tables(luma.scaled(80).natural(),
                                               chroma.scaled(80).natural())
                                .chroma_420(false)
                                .digest());

  // The reference holds end to end: Service::deepn_encode payloads are
  // bit-identical to Codec::encode under encode_options_for.
  api::Session session;
  const image::Image img = rgb_image();
  api::Service service(api::ServiceOptions().workers(2).registry(registry));
  api::ServiceReply served = service.deepn_encode(img.view(), "vision", 80).get();
  ASSERT_TRUE(served.status.ok()) << served.status.message();
  EXPECT_EQ(served.bytes, session.codec().encode(img.view(), at80.value()).value());

  // Typed refusals through the async path.
  EXPECT_EQ(service.deepn_encode(img.view(), "", 50).get().status.code(),
            api::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.deepn_encode(img.view(), "vision", 0).get().status.code(),
            api::StatusCode::kInvalidArgument);
  api::ServiceReply ghost = service.deepn_encode(img.view(), "ghost", 50).get();
  EXPECT_EQ(ghost.status.code(), api::StatusCode::kInternal);
  EXPECT_NE(ghost.status.message().find("unknown tenant"), std::string::npos);
}

TEST(ApiRegistry, ServiceRegistryIsLiveAndMetricsAttributeTenants) {
  const image::Image img = gray_image();
  api::Service service(api::ServiceOptions().workers(2).result_cache(32));

  // No registry passed: the service created a private one, and the handle
  // Service::registry() returns is live — tenants registered through it
  // are visible to requests submitted afterwards.
  api::Registry live = service.registry();
  ASSERT_TRUE(live.put("edge", {}).ok());
  api::ServiceReply first = service.deepn_encode(img.view(), "edge", 75).get();
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  api::ServiceReply again = service.deepn_encode(img.view(), "edge", 75).get();
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.bytes, first.bytes);

  const api::ServiceMetrics m = service.metrics();
  ASSERT_EQ(m.tenants.size(), 1u);
  EXPECT_EQ(m.tenants[0].name, "edge");
  EXPECT_EQ(m.tenants[0].requests, 2u);
  EXPECT_EQ(m.tenants[0].completed, 2u);
  EXPECT_EQ(m.tenants[0].errors, 0u);
  EXPECT_GE(m.tenants[0].cache_hits, 1u) << "identical repeat must hit the result cache";
  EXPECT_GT(m.cache_bytes, 0u);
}

TEST(ApiCAbi, RegistryLifecycleAndServedIdentity) {
  EXPECT_GE(DNJ_ABI_VERSION_MINOR, 2) << "registry entry points are ABI 1.2";

  dnj_registry_t* reg = dnj_registry_new();
  ASSERT_NE(reg, nullptr);
  EXPECT_STREQ(dnj_registry_last_error(reg), "");
  EXPECT_EQ(dnj_registry_count(reg), 0u);

  // NULL options = defaults (Annex K pair materialized).
  std::uint64_t version = 0;
  ASSERT_EQ(dnj_registry_put(reg, "mobile", nullptr, 2048, &version), DNJ_OK);
  EXPECT_GT(version, 0u);
  EXPECT_EQ(dnj_registry_count(reg), 1u);
  std::uint64_t got_version = 0;
  std::size_t got_quota = 0;
  EXPECT_EQ(dnj_registry_get(reg, "mobile", &got_version, &got_quota), DNJ_OK);
  EXPECT_EQ(got_version, version);
  EXPECT_EQ(got_quota, 2048u);

  // encode_options agrees with the C++ determinism reference.
  api::Registry cpp;
  ASSERT_TRUE(cpp.put("mobile", {}).ok());
  dnj_options_t* out = dnj_options_new();
  ASSERT_EQ(dnj_registry_encode_options(reg, "mobile", 65, out), DNJ_OK);
  EXPECT_EQ(dnj_options_digest(out), cpp.encode_options_for("mobile", 65)->digest());

  // Documented error paths, all firewalled.
  EXPECT_EQ(dnj_registry_put(reg, nullptr, nullptr, 0, nullptr), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_registry_put(reg, "", nullptr, 0, nullptr), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_registry_get(reg, "ghost", nullptr, nullptr), DNJ_INVALID_ARGUMENT);
  EXPECT_STRNE(dnj_registry_last_error(reg), "");
  EXPECT_EQ(dnj_registry_remove(reg, "ghost"), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_registry_encode_options(reg, "mobile", 0, out), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_registry_encode_options(reg, "mobile", 50, nullptr), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_registry_remove(reg, "mobile"), DNJ_OK);
  EXPECT_EQ(dnj_registry_count(reg), 0u);

  // NULL handles are inert.
  EXPECT_EQ(dnj_registry_put(nullptr, "x", nullptr, 0, nullptr), DNJ_INVALID_ARGUMENT);
  EXPECT_EQ(dnj_registry_count(nullptr), 0u);
  EXPECT_STREQ(dnj_registry_last_error(nullptr), "");
  dnj_registry_free(nullptr);

  // A server built over the registry shares it live (handle freed first —
  // the underlying registry must outlive through the server).
  ASSERT_EQ(dnj_registry_put(reg, "mobile", nullptr, 0, nullptr), DNJ_OK);
  dnj_server_t* server = dnj_server_new_with_registry(1, 8, 1, reg);
  ASSERT_NE(server, nullptr);
  dnj_registry_free(reg);
  dnj_server_free(server);

  dnj_options_free(out);
}

}  // namespace
}  // namespace dnj
