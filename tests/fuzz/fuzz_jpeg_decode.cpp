// Differential fuzz target for the JPEG decoder.
//
// Oracle, per input:
//  * jpeg::decode at the default Huffman lookup width on 4 threads (so a
//    scan of two or more chunks takes the split decoder of
//    jpeg/pipeline/scan_chunks.hpp) and at width 0 on 1 thread (the
//    bit-by-bit reference walk, straight through) return identical
//    pixels, or both throw std::runtime_error;
//  * jpeg::parse_info returns or throws std::runtime_error.
// Anything else — a mismatch, another exception type, a crash or a
// sanitizer report — is a finding. Every finding becomes a regression test
// in the jpeg test suites.
//
// Two ways to run it:
//  * libFuzzer (clang): compile this file with -DDNJ_LIBFUZZER and
//    -fsanitize=fuzzer,address,undefined, link it against libdnj, and run
//    the binary on a corpus directory. LLVMFuzzerTestOneInput is the whole
//    interface.
//  * Standalone (any compiler; the default build): a deterministic
//    mutation runner. It builds its seed corpus in process from the stream
//    shapes of test_jpeg_robustness (gray, 4:4:4 and 4:2:0; restart
//    markers on and off; optimized Huffman tables) plus two 4:2:0 q90
//    streams just past the two-chunk threshold, with and without restart
//    markers, so that mutations land in speculative chunks. Then it runs
//    the oracle on seeded mutations of the corpus: bit flips, byte stores,
//    truncation, chunk splices, inserted markers and 0xFF runs.
//
//      fuzz_jpeg_decode [--iterations N] [--seconds S] [--seed K]
//
//    It stops after N iterations or S seconds, whichever comes first
//    (2000 iterations when neither is given). A fixed N replays the same
//    inputs on every run. On a finding it writes the input to
//    fuzz-finding-<seed>-<iteration>.jpg and exits non-zero.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "jpeg/codec.hpp"
#include "jpeg/huffman.hpp"
#include "jpeg/pipeline/codec_context.hpp"

namespace {

using namespace dnj;

struct Outcome {
  bool ok = false;  // false: threw std::runtime_error
  image::Image img;
};

// One context per width, so each keeps its own decoder tables warm.
Outcome decode_at(const std::uint8_t* data, std::size_t size, int width, int threads,
                  jpeg::pipeline::CodecContext& ctx) {
  jpeg::set_entropy_lut_bits(width);
  Outcome o;
  try {
    o.img = jpeg::decode(ByteSpan{data, size}, ctx, threads);
    o.ok = true;
  } catch (const std::runtime_error&) {
  }
  return o;
}

// Runs the oracle; returns an empty string when it holds, else what broke.
// Exceptions other than std::runtime_error propagate (a finding too).
// `decoded` (optional) reports whether the input decoded at all.
std::string check(const std::uint8_t* data, std::size_t size, bool* decoded = nullptr) {
  static const int default_width = jpeg::entropy_lut_bits();
  static jpeg::pipeline::CodecContext lut_ctx, ref_ctx;
  try {
    (void)jpeg::parse_info(ByteSpan{data, size});
  } catch (const std::runtime_error&) {
  }
  const Outcome lut = decode_at(data, size, default_width, 4, lut_ctx);
  const Outcome ref = decode_at(data, size, 0, 1, ref_ctx);
  jpeg::set_entropy_lut_bits(default_width);
  if (decoded) *decoded = ref.ok;
  if (lut.ok != ref.ok)
    return lut.ok ? "width 0 threw, default width decoded"
                  : "default width threw, width 0 decoded";
  if (lut.ok && (lut.img.width() != ref.img.width() || lut.img.height() != ref.img.height() ||
                 lut.img.channels() != ref.img.channels() ||
                 lut.img.data() != ref.img.data()))
    return "pixels differ between default width and width 0";
  return {};
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string broken = check(data, size);
  if (!broken.empty()) {
    std::fprintf(stderr, "fuzz_jpeg_decode: %s\n", broken.c_str());
    std::abort();
  }
  return 0;
}

#ifndef DNJ_LIBFUZZER
namespace {

// The test_jpeg_robustness stream shapes (48x40, q80), then the two-chunk
// shapes: 320x320 4:2:0 q90 is 2400 blocks in about 55 KB of scan, just
// past both minimums of pipeline::chunk_count, with and without one
// restart marker per MCU row.
std::vector<std::vector<std::uint8_t>> seed_corpus() {
  struct Shape {
    int channels;
    jpeg::Subsampling sub;
    int restart;
    bool optimize;
    int size = 0;  // 0: 48x40 at q80; else size x size at q90
  };
  const Shape shapes[] = {
      {1, jpeg::Subsampling::k444, 0, false}, {1, jpeg::Subsampling::k444, 3, false},
      {3, jpeg::Subsampling::k444, 0, false}, {3, jpeg::Subsampling::k420, 0, false},
      {3, jpeg::Subsampling::k420, 2, false}, {3, jpeg::Subsampling::k420, 0, true},
      {1, jpeg::Subsampling::k444, 2, true},  {3, jpeg::Subsampling::k420, 0, false, 320},
      {3, jpeg::Subsampling::k420, 20, false, 320},
  };
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const Shape& sh : shapes) {
    data::GeneratorConfig cfg;
    cfg.width = sh.size > 0 ? sh.size : 48;
    cfg.height = sh.size > 0 ? sh.size : 40;
    cfg.channels = sh.channels;
    cfg.seed = 99;
    const image::Image img =
        data::SyntheticDatasetGenerator(cfg).render(data::ClassKind::kBandNoise, 0);
    jpeg::EncoderConfig ec;
    ec.quality = sh.size > 0 ? 90 : 80;
    ec.subsampling = sh.sub;
    ec.restart_interval = sh.restart;
    ec.optimize_huffman = sh.optimize;
    corpus.push_back(jpeg::encode(img, ec));
  }
  return corpus;
}

std::vector<std::uint8_t> mutate(const std::vector<std::vector<std::uint8_t>>& corpus,
                                 std::mt19937_64& rng) {
  std::vector<std::uint8_t> s = corpus[rng() % corpus.size()];
  const auto pick = [&rng](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  static const std::uint8_t kInteresting[] = {0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF,
                                              0xC0, 0xC4, 0xD0, 0xD7, 0xD9, 0xDA, 0xDD};
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits && !s.empty(); ++e) {
    switch (rng() % 8) {
      case 0:  // flip one bit
        s[pick(s.size())] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1:  // store a random byte
        s[pick(s.size())] = static_cast<std::uint8_t>(rng());
        break;
      case 2:  // store an interesting byte
        s[pick(s.size())] = kInteresting[pick(sizeof(kInteresting))];
        break;
      case 3:  // truncate
        s.resize(pick(s.size() + 1));
        break;
      case 4: {  // copy a chunk of this stream over another place
        const std::size_t from = pick(s.size()), to = pick(s.size());
        const std::size_t n = std::min({pick(64) + 1, s.size() - from, s.size() - to});
        std::copy(s.begin() + static_cast<long>(from),
                  s.begin() + static_cast<long>(from + n), s.begin() + static_cast<long>(to));
        break;
      }
      case 5: {  // insert a marker
        const std::uint8_t m = kInteresting[6 + pick(sizeof(kInteresting) - 6)];
        s.insert(s.begin() + static_cast<long>(pick(s.size() + 1)), {0xFF, m});
        break;
      }
      case 6: {  // a run of 0xFF
        const std::size_t at = pick(s.size());
        const std::size_t n = std::min(pick(16) + 1, s.size() - at);
        std::fill_n(s.begin() + static_cast<long>(at), n, std::uint8_t{0xFF});
        break;
      }
      case 7: {  // splice the tail of another corpus stream
        const std::vector<std::uint8_t>& other = corpus[pick(corpus.size())];
        const std::size_t cut = pick(s.size() + 1), from = pick(other.size());
        s.resize(cut);
        s.insert(s.end(), other.begin() + static_cast<long>(from), other.end());
        break;
      }
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  long iterations = -1;  // no count limit unless given
  double seconds = 0.0;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 < argc && flag == "--iterations") {
      iterations = std::strtol(argv[i + 1], nullptr, 10);
    } else if (i + 1 < argc && flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (i + 1 < argc && flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--iterations N] [--seconds S] [--seed K]\n", argv[0]);
      return 2;
    }
  }
  if (iterations < 0 && seconds <= 0) iterations = 2000;
  const std::vector<std::vector<std::uint8_t>> corpus = seed_corpus();
  for (std::size_t i = corpus.size() - 2; i < corpus.size(); ++i) {
    // The two-chunk shapes must still reach the split decoder.
    jpeg::pipeline::CodecContext ctx;
    try {
      (void)jpeg::decode(corpus[i], ctx, 4);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fuzz_jpeg_decode: seed stream %zu: %s\n", i, e.what());
      return 1;
    }
    if (ctx.decode_chunks.size() < 2) {
      std::fprintf(stderr, "fuzz_jpeg_decode: seed stream %zu decodes as one chunk\n", i);
      return 1;
    }
  }
  std::mt19937_64 rng(seed);
  const auto start = std::chrono::steady_clock::now();
  long done = 0;
  long decoded = 0;
  for (; iterations < 0 || done < iterations; ++done) {
    if (seconds > 0 && std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                               .count() >= seconds)
      break;
    // Every seed stream first, unmutated: the oracle must hold on them.
    const std::vector<std::uint8_t> input =
        done < static_cast<long>(corpus.size()) ? corpus[static_cast<std::size_t>(done)]
                                                : mutate(corpus, rng);
    std::string broken;
    bool ok = false;
    try {
      broken = check(input.data(), input.size(), &ok);
    } catch (const std::exception& e) {
      broken = std::string("unexpected exception: ") + e.what();
    }
    if (!broken.empty()) {
      const std::string path =
          "fuzz-finding-" + std::to_string(seed) + "-" + std::to_string(done) + ".jpg";
      if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
        std::fwrite(input.data(), 1, input.size(), f);
        std::fclose(f);
      }
      std::fprintf(stderr, "fuzz_jpeg_decode: iteration %ld (seed %llu): %s; input in %s\n",
                   done, static_cast<unsigned long long>(seed), broken.c_str(), path.c_str());
      return 1;
    }
    decoded += ok ? 1 : 0;
  }
  std::printf("fuzz_jpeg_decode: %ld inputs (%ld decoded, the rest rejected), oracle held "
              "on all (seed %llu)\n",
              done, decoded, static_cast<unsigned long long>(seed));
  return 0;
}
#endif  // DNJ_LIBFUZZER
