// Codec micro-benchmarks (google-benchmark). Two purposes:
//  1. Stage-level costs of the from-scratch codec (DCT variants, quantize,
//     entropy coding, full encode/decode).
//  2. The paper's "same hardware cost" claim: encoding with the DeepN-JPEG
//     table must cost the same as encoding with the stock JPEG table —
//     only table *contents* differ, the datapath is identical.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "core/deepnjpeg.hpp"
#include "data/synthetic.hpp"
#include "jpeg/block_coder.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/dct.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/quant.hpp"
#include "runtime/parallel.hpp"
#include "simd/dispatch.hpp"

using namespace dnj;

namespace {

image::BlockF random_block(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-128.0f, 127.0f);
  image::BlockF b{};
  for (float& v : b) v = dist(rng);
  return b;
}

image::Image test_image(int dim, int channels) {
  data::GeneratorConfig cfg;
  cfg.width = dim;
  cfg.height = dim;
  cfg.channels = channels;
  cfg.seed = 7;
  return data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
}

jpeg::QuantTable deepn_table() {
  data::GeneratorConfig cfg;
  cfg.seed = 7;
  const data::Dataset ds = data::SyntheticDatasetGenerator(cfg).generate(4);
  return core::DeepNJpeg::design(ds).table;
}

void BM_FdctRef(benchmark::State& state) {
  const image::BlockF b = random_block(1);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::fdct_ref(b));
}
BENCHMARK(BM_FdctRef);

void BM_FdctAan(benchmark::State& state) {
  const image::BlockF b = random_block(1);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::fdct_aan(b));
}
BENCHMARK(BM_FdctAan);

void BM_IdctFast(benchmark::State& state) {
  const image::BlockF b = random_block(2);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::idct_fast(b));
}
BENCHMARK(BM_IdctFast);

void BM_Quantize(benchmark::State& state) {
  const image::BlockF coeffs = random_block(3);
  const jpeg::QuantTable table = jpeg::QuantTable::annex_k_luma();
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::quantize(coeffs, table));
}
BENCHMARK(BM_Quantize);

void BM_HuffmanEncodeBlock(benchmark::State& state) {
  const jpeg::QuantizedBlock blk =
      jpeg::quantize(random_block(4), jpeg::QuantTable::annex_k_luma());
  const jpeg::HuffmanEncoder dc(jpeg::HuffmanSpec::default_dc_luma());
  const jpeg::HuffmanEncoder ac(jpeg::HuffmanSpec::default_ac_luma());
  std::vector<std::uint8_t> out;
  out.reserve(1 << 16);
  for (auto _ : state) {
    out.clear();
    jpeg::BitWriter bw(out);
    int pred = 0;
    jpeg::encode_block(bw, blk, pred, dc, ac);
    bw.flush();
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_HuffmanEncodeBlock);

void BM_EncodeGray(benchmark::State& state) {
  const image::Image img = test_image(static_cast<int>(state.range(0)), 1);
  jpeg::EncoderConfig cfg;
  cfg.quality = 75;
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(img, cfg));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * img.byte_size());
}
BENCHMARK(BM_EncodeGray)->Arg(32)->Arg(128);

void BM_EncodeColor420(benchmark::State& state) {
  const image::Image img = test_image(static_cast<int>(state.range(0)), 3);
  jpeg::EncoderConfig cfg;
  cfg.quality = 75;
  cfg.subsampling = jpeg::Subsampling::k420;
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(img, cfg));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * img.byte_size());
}
BENCHMARK(BM_EncodeColor420)->Arg(64);

void BM_Decode(benchmark::State& state) {
  const image::Image img = test_image(static_cast<int>(state.range(0)), 1);
  jpeg::EncoderConfig cfg;
  cfg.quality = 75;
  const auto bytes = jpeg::encode(img, cfg);
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::decode(bytes));
}
BENCHMARK(BM_Decode)->Arg(32)->Arg(128);

void BM_EncodeOptimizedHuffman(benchmark::State& state) {
  const image::Image img = test_image(128, 1);
  jpeg::EncoderConfig cfg;
  cfg.quality = 75;
  cfg.optimize_huffman = true;
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(img, cfg));
}
BENCHMARK(BM_EncodeOptimizedHuffman);

// --- iso-cost pair: stock JPEG table vs DeepN-JPEG table ---

void BM_EncodeJpegTable(benchmark::State& state) {
  const image::Image img = test_image(128, 1);
  jpeg::EncoderConfig cfg;
  cfg.quality = 50;
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(img, cfg));
}
BENCHMARK(BM_EncodeJpegTable);

void BM_EncodeDeepNTable(benchmark::State& state) {
  const image::Image img = test_image(128, 1);
  const jpeg::EncoderConfig cfg = core::custom_table_config(deepn_table());
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::encode(img, cfg));
}
BENCHMARK(BM_EncodeDeepNTable);

void BM_TableDesign(benchmark::State& state) {
  data::GeneratorConfig cfg;
  cfg.seed = 7;
  const data::Dataset ds = data::SyntheticDatasetGenerator(cfg).generate(8);
  for (auto _ : state) benchmark::DoNotOptimize(core::DeepNJpeg::design(ds));
}
BENCHMARK(BM_TableDesign);

// --- band-parallel pixel stages ---

// The offline_1080p op: decode a 1920x1080 4:2:0 q90 stream and re-encode
// it with custom (DeepN) tables at 4:4:4, through one warm context.
// threads:1 is the serial floor; threads:0 lets frames of two or more
// bands (jpeg/pipeline/bands.hpp) fan their pixel stages out over the
// runtime pool. Wall time, since the work spans threads.
void BM_Transcode1080p(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  data::GeneratorConfig g;
  g.width = 1920;
  g.height = 1080;
  g.channels = 3;
  g.seed = 7;
  const image::Image img = data::SyntheticDatasetGenerator(g).generate(1).samples[0].image;
  jpeg::EncoderConfig src_cfg;
  src_cfg.quality = 90;
  src_cfg.subsampling = jpeg::Subsampling::k420;
  const auto bytes = jpeg::encode(img, src_cfg);
  jpeg::EncoderConfig cfg = core::custom_table_config(deepn_table());
  cfg.subsampling = jpeg::Subsampling::k444;
  jpeg::pipeline::CodecContext ctx;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        jpeg::encode(jpeg::decode(bytes, ctx, threads), cfg, ctx, threads));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Transcode1080p)->ArgName("threads")->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The fixed cost of one parallel region: chunks with near-empty bodies,
// spread over the pool. Set against a band's work (4096 blocks at the
// BM_FdctBatch per-block rate, the cheapest banded stage), it sizes
// pipeline::kMinBandBlocks.
void BM_PoolHandoff(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> sink(chunks);
  for (auto _ : state) {
    runtime::parallel_for(0, chunks, 1, [&](std::size_t i) { sink[i] = i; });
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_PoolHandoff)->ArgName("chunks")->Arg(4)->Arg(16)->UseRealTime();

// --- per-level SIMD kernel micro-benches ---
//
// Registered at runtime for every level this machine supports, so one run
// prints scalar vs sse2 vs avx2 rows side by side (BM_FdctBatch/scalar,
// BM_FdctBatch/avx2, ...). Each benchmark pins its level up front; the
// batch kernels process a 256-block plane per iteration.

constexpr std::size_t kBatchBlocks = 256;

// The level active at program start (i.e. the DNJ_SIMD pin, or auto-detect).
// Every per-level benchmark restores this instead of max_supported_level(),
// so an env-pinned run really measures the pinned level end to end.
simd::Level ambient_level() {
  static const simd::Level level = simd::active_level();
  return level;
}

std::vector<float> batch_blocks(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-128.0f, 127.0f);
  std::vector<float> out(kBatchBlocks * 64);
  for (float& v : out) v = dist(rng);
  return out;
}

void BM_FdctBatch(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  std::vector<float> blocks = batch_blocks(11);
  for (auto _ : state) {
    jpeg::fdct_batch(blocks.data(), kBatchBlocks);
    benchmark::DoNotOptimize(blocks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatchBlocks);
  simd::set_level(ambient_level());
}

void BM_IdctBatch(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  std::vector<float> blocks = batch_blocks(12);
  for (auto _ : state) {
    jpeg::idct_batch(blocks.data(), kBatchBlocks);
    benchmark::DoNotOptimize(blocks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatchBlocks);
  simd::set_level(ambient_level());
}

void BM_QuantZigzagBatch(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  const std::vector<float> coeffs = batch_blocks(13);
  const jpeg::ReciprocalTable recip(jpeg::QuantTable::annex_k_luma());
  std::vector<std::int16_t> out(kBatchBlocks * 64);
  for (auto _ : state) {
    jpeg::quantize_zigzag_batch(coeffs.data(), kBatchBlocks, recip, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatchBlocks);
  simd::set_level(ambient_level());
}

void BM_GemmAcc(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  // Conv2D-forward shape from the 32x32 MiniAlexNet stem:
  // C[32 x 1024] += W[32 x 75] * col[75 x 1024].
  const int m = 32, k = 75, n = 1024;
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (float& v : a) v = dist(rng);
  for (float& v : b) v = dist(rng);
  for (auto _ : state) {
    simd::kernels().gemm_acc(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * m * k * n);
  simd::set_level(ambient_level());
}

// One 1080p chroma row: 960 source samples -> 1920 outputs.
void BM_Upsample2xRow(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  constexpr int kOutW = 1920;
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> src((kOutW + 1) / 2);
  for (float& v : src) v = dist(rng);
  std::vector<float> out(kOutW);
  for (auto _ : state) {
    simd::kernels().upsample2x_row(src.data(), static_cast<int>(src.size()), out.data(),
                                   kOutW);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kOutW);
  simd::set_level(ambient_level());
}

// Whole 4:2:0 decode through a warm context. The entropy stage costs the
// same at every level, so the spread between level rows is the pixel
// reconstruction: dequantize, IDCT, untile, fused upsample + colour convert.
void BM_Reconstruct420(benchmark::State& state, simd::Level level) {
  simd::set_level(level);
  const image::Image img = test_image(512, 3);
  jpeg::EncoderConfig cfg;
  cfg.quality = 75;
  cfg.subsampling = jpeg::Subsampling::k420;
  const auto bytes = jpeg::encode(img, cfg);
  jpeg::pipeline::CodecContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(jpeg::decode(bytes, ctx, 1));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * img.width() *
                          img.height());
  simd::set_level(ambient_level());
}

void register_simd_level_benches() {
  for (simd::Level level :
       {simd::Level::kScalar, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (!simd::set_level(level)) continue;
    const std::string suffix = std::string("/") + simd::level_name(level);
    benchmark::RegisterBenchmark(("BM_FdctBatch" + suffix).c_str(), BM_FdctBatch,
                                 level);
    benchmark::RegisterBenchmark(("BM_IdctBatch" + suffix).c_str(), BM_IdctBatch,
                                 level);
    benchmark::RegisterBenchmark(("BM_QuantZigzagBatch" + suffix).c_str(),
                                 BM_QuantZigzagBatch, level);
    benchmark::RegisterBenchmark(("BM_GemmAcc" + suffix).c_str(), BM_GemmAcc, level);
    benchmark::RegisterBenchmark(("BM_Upsample2xRow" + suffix).c_str(), BM_Upsample2xRow,
                                 level);
    benchmark::RegisterBenchmark(("BM_Reconstruct420" + suffix).c_str(), BM_Reconstruct420,
                                 level);
  }
  simd::set_level(ambient_level());
}

}  // namespace

int main(int argc, char** argv) {
  ambient_level();  // snapshot the DNJ_SIMD pin before any benchmark touches it
  register_simd_level_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
