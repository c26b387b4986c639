// Entropy-coded segment bit I/O. JPEG writes bits MSB-first and byte-stuffs
// every 0xFF data byte with a following 0x00 so that decoders can find
// markers by scanning for un-stuffed 0xFF bytes.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dnj::jpeg {

namespace detail {

// One unaligned big-endian 8-byte load.
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t w;
#if defined(__GNUC__) || defined(__clang__)
  __builtin_memcpy(&w, p, 8);
  return __builtin_bswap64(w);
#else
  w = 0;
  for (int i = 0; i < 8; ++i) w = (w << 8) | p[i];
  return w;
#endif
}

}  // namespace detail

class BitWriter {
 public:
  /// kStuffed writes a finished entropy-coded segment (every 0xFF data
  /// byte followed by 0x00). kRaw writes the bare bits, for a band of a
  /// scan that put_bytes() later splices, stuffed, into the real stream.
  enum class Stuffing { kStuffed, kRaw };

  explicit BitWriter(std::vector<std::uint8_t>& out, Stuffing stuffing = Stuffing::kStuffed)
      : out_(out), stuff_(stuffing == Stuffing::kStuffed) {}

  /// Writes the low `count` bits of `bits`, MSB first. count in [0, 32] —
  /// wide enough for a fused Huffman-code + magnitude field (16 + 11 bits
  /// worst case). Inline: this is the entropy coder's innermost operation.
  /// Bits collect in a 64-bit accumulator and drain four *unstuffed* bytes
  /// at a time into the staging buffer; byte stuffing happens in bulk at
  /// spill time via the dispatched simd stuff_bytes kernel, so the hot path
  /// has no per-byte 0xFF checks at all. Buffered bytes reach the vector on
  /// flush()/put_marker() — every entropy-coded segment ends with a marker,
  /// so complete streams are never left stale.
  void put_bits(std::uint32_t bits, int count) {
    if (count < 0 || count > 32) throw std::invalid_argument("BitWriter: bad bit count");
    // count == 0 falls through harmlessly: mask is 0, shift is 0, no drain.
    acc_ = (acc_ << count) |
           (bits & static_cast<std::uint32_t>((1ull << count) - 1ull));
    bit_count_ += count;  // stays < 64: drained below 32 after every call
    if (bit_count_ >= 32) {
      const std::uint32_t word =
          static_cast<std::uint32_t>(acc_ >> (bit_count_ - 32));
      bit_count_ -= 32;
      if (buf_len_ + 4 > kBufSize) spill();
      store_be32(&buf_[buf_len_], word);
      buf_len_ += 4;
    }
  }

  /// Writes the low `count` bits of `bits`, MSB first, count in [0, 64] —
  /// wide enough for a precomputed multi-symbol field (e.g. a fused run of
  /// three 16-bit ZRL codes). Same bitstream as splitting the field across
  /// two put_bits calls, in one call.
  void put_bits64(std::uint64_t bits, int count) {
    if (count <= 32) {
      put_bits(static_cast<std::uint32_t>(bits), count);
      return;
    }
    if (count > 64) throw std::invalid_argument("BitWriter: bad bit count");
    // Each put_bits leaves < 32 residual bits, so the 32-bit tail always
    // fits the accumulator.
    put_bits(static_cast<std::uint32_t>(bits >> 32), count - 32);
    put_bits(static_cast<std::uint32_t>(bits), 32);
  }

  /// Register-resident emission window for one entropy-coded block. The
  /// cursor checks staging capacity ONCE for the whole block (worst case:
  /// 64 coefficients x 26 bits < kBlockReserve bytes), then keeps the
  /// accumulator, bit count and write pointer in locals so the per-symbol
  /// path has no buffer checks, no validation branches and no member
  /// round-trips. commit() writes the state back; the owning BitWriter must
  /// not be touched between construction and commit(), and each cursor must
  /// be committed before the next one is created.
  class BlockCursor {
   public:
    explicit BlockCursor(BitWriter& w) : w_(w), filled_(w.bit_count_) {
      if (w.buf_len_ + kBlockReserve > kBufSize) w.spill();
      p_ = w.buf_.data() + w.buf_len_;
      // Pin the pending bits to the TOP of the accumulator and immediately
      // retire any whole bytes, so every put() below starts with <= 7
      // pending bits (57 bits of headroom — enough for a packed ZRL triple).
      acc_ = filled_ != 0 ? w.acc_ << (64 - filled_) : 0;
      store_be64(p_, acc_);
      const int adv = filled_ >> 3;
      p_ += adv;
      acc_ <<= adv * 8;
      filled_ &= 7;
    }

    /// Low `count` bits of `bits`, MSB first, count in [1, 48]. Branchless:
    /// an overlapping big-endian 8-byte store retires completed bytes after
    /// every call — entropy-coded bit counts are noise-like, so a
    /// drain-if-full branch here mispredicts constantly. Precondition:
    /// `bits` has no set bits above `count` (Huffman codes and masked
    /// magnitudes satisfy that by construction).
    void put(std::uint64_t bits, int count) {
      acc_ |= bits << (64 - count - filled_);
      filled_ += count;
      store_be64(p_, acc_);
      const int adv = filled_ >> 3;
      p_ += adv;
      acc_ <<= adv * 8;  // adv <= 6: filled_ stays <= 55
      filled_ &= 7;
    }

    /// Re-checks staging capacity between blocks when one cursor spans a
    /// whole run of blocks; spills completed bytes when the next block
    /// might not fit. One predictable pointer compare in the common case.
    void reserve_block() {
      if (static_cast<std::size_t>(p_ - w_.buf_.data()) + kBlockReserve > kBufSize) {
        commit();
        w_.spill();
        p_ = w_.buf_.data();  // buf_len_ is 0 after spill; pending bits stay in acc_
      }
    }

    /// Writes accumulator/pointer state back to the BitWriter.
    void commit() {
      w_.acc_ = filled_ != 0 ? acc_ >> (64 - filled_) : 0;
      w_.bit_count_ = filled_;
      w_.buf_len_ = static_cast<std::size_t>(p_ - w_.buf_.data());
    }

   private:
    BitWriter& w_;
    std::uint8_t* p_;
    std::uint64_t acc_;  // pending bits left-aligned at bit 63
    int filled_;         // pending bit count, <= 7 between put() calls
  };

  /// Pads the current byte with 1-bits (the JPEG fill convention) and
  /// drains accumulator and staging buffer into the output vector. Call
  /// before writing any marker or inspecting the output.
  void flush();

  /// Flushes, then writes a two-byte marker (0xFF, code) unstuffed.
  void put_marker(std::uint8_t code);

  /// Appends `n` whole bytes of bits at the current bit position: the
  /// same stream as n put_bits(byte, 8) calls, shifted eight bytes at a
  /// time. This is the splice that joins separately emitted bands.
  void put_bytes(const std::uint8_t* p, std::size_t n);

  /// The bits after the last whole byte, low `count` bits of `bits`.
  struct Tail {
    std::uint32_t bits = 0;
    int count = 0;  // < 8
  };

  /// Drains every whole byte into the output, unpadded, and returns the
  /// < 8 bits left over; the writer then starts a fresh byte. A kRaw band
  /// ends this way, so the splice can continue it mid-byte.
  Tail take_tail();

 private:
  static constexpr std::size_t kBufSize = 4096;
  // BlockCursor headroom: one block emits at most 27 DC + 63 * 26 AC bits
  // (~209 bytes); 256 covers that plus the cursor's 8-byte store overhang.
  static constexpr std::size_t kBlockReserve = 256;

  // One 4-byte store instead of four byte stores — the drain runs once per
  // 32 emitted bits, squarely on the entropy coder's hot path.
  static void store_be32(std::uint8_t* p, std::uint32_t word) {
#if defined(__GNUC__) || defined(__clang__)
    word = __builtin_bswap32(word);
    __builtin_memcpy(p, &word, 4);
#else
    p[0] = static_cast<std::uint8_t>(word >> 24);
    p[1] = static_cast<std::uint8_t>(word >> 16);
    p[2] = static_cast<std::uint8_t>(word >> 8);
    p[3] = static_cast<std::uint8_t>(word);
#endif
  }

  static void store_be64(std::uint8_t* p, std::uint64_t word) {
#if defined(__GNUC__) || defined(__clang__)
    word = __builtin_bswap64(word);
    __builtin_memcpy(p, &word, 8);
#else
    for (int i = 0; i < 8; ++i)
      p[i] = static_cast<std::uint8_t>(word >> (56 - 8 * i));
#endif
  }

  void drain_whole_bytes();  // accumulator -> staging until < 8 bits remain
  void spill();  // copies buf_[0..buf_len_) onto out_ in one pass, stuffed unless kRaw

  std::vector<std::uint8_t>& out_;
  bool stuff_;
  std::array<std::uint8_t, kBufSize> buf_;  // unstuffed staged bytes
  std::size_t buf_len_ = 0;
  std::uint64_t acc_ = 0;
  int bit_count_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  /// Reads `count` bits MSB-first, count in [0, 31] (a 32-bit value could
  /// not be told from the failure value). Returns -1 if the scan data is
  /// exhausted or a marker is hit (callers treat that as a corrupt-stream
  /// error except for expected RST/EOI handling).
  std::int32_t get_bits(int count);

  /// Reads a single bit; -1 on marker/end.
  std::int32_t get_bit();

  /// Register-resident read window over a run of entropy-coded blocks, the
  /// read-side twin of BitWriter::BlockCursor. The buffered bits sit
  /// left-aligned in a 64-bit window held (with the read pointer) in the
  /// cursor, so a decode loop that keeps the cursor local keeps them in
  /// registers. commit() writes the state back; the owning BitReader must
  /// not be read between construction (or reload()) and commit().
  ///
  /// Bits below the buffered ones may hold a copy of the stream's next
  /// data bytes (the fast refill overlaps its loads). They are never
  /// delivered: every consumer checks its length against bits(), and
  /// commit() drops them.
  class ReadCursor {
   public:
    explicit ReadCursor(BitReader& r) : r_(r) { reload(); }

    /// Tops the window up to at least 56 buffered bits where the stream
    /// allows. Fast path: one unaligned big-endian 8-byte load, OR-merged
    /// below the buffered bits, whenever those 8 bytes hold no 0xFF (so no
    /// stuffed byte and no marker). Otherwise a byte-wise unstuffing walk
    /// that stops in front of a marker or the end of data without
    /// consuming it (nothing latches: the next refill looks again). Never
    /// consumes bits. Precondition: bits() < 64.
    void refill() {
      if (end_ - p_ >= 8) {
        const std::uint64_t w = detail::load_be64(p_);
        const std::uint64_t inv = ~w;  // a 0xFF byte of w is a zero byte of inv
        if (((inv - 0x0101010101010101ull) & w & 0x8080808080808080ull) == 0) {
          window_ |= w >> bits_;
          p_ += (63 - bits_) >> 3;  // whole bytes that fit: bits_ -> 56..63
          bits_ |= 56;
          return;
        }
      }
      const Fill f = refill_bytes(p_, end_, window_, bits_);
      p_ = f.p;
      window_ = f.window;
      bits_ = f.bits;
      skipped_ += f.skipped;
    }

    /// The buffered bits, left-aligned at bit 63 (see the class comment
    /// for what lies below bits()).
    std::uint64_t window() const { return window_; }
    /// Number of buffered bits, in [0, 64].
    int bits() const { return bits_; }
    /// Consumes `n` bits, n in [0, bits()] and n < 64.
    void skip(int n) {
      window_ <<= n;
      bits_ -= n;
    }
    /// Consumes and returns the next `n` bits, n in [1, 32] and n <= bits().
    std::uint32_t take(int n) {
      const auto v = static_cast<std::uint32_t>(window_ >> (64 - n));
      skip(n);
      return v;
    }

    /// Data bits consumed since the reader's first byte; equals the
    /// reader's bit_position() after commit().
    std::uint64_t bit_position() const {
      return 8 * (static_cast<std::uint64_t>(p_ - r_.data_) - skipped_) -
             static_cast<std::uint64_t>(bits_);
    }

    /// Writes the window back: position() and buffered_bits() of the
    /// reader are then exact (the restart over-run check relies on them).
    void commit() {
      r_.acc_ = bits_ != 0 ? window_ >> (64 - bits_) : 0;
      r_.bit_count_ = bits_;
      r_.pos_ = static_cast<std::size_t>(p_ - r_.data_);
      r_.skipped_ = skipped_;
    }

    /// Re-reads the reader's state after direct use between commit() and
    /// here (the bit-by-bit reference fallback).
    void reload() {
      p_ = r_.data_ + r_.pos_;
      end_ = r_.data_ + r_.size_;
      bits_ = r_.bit_count_;
      window_ = bits_ != 0 ? r_.acc_ << (64 - bits_) : 0;
      skipped_ = r_.skipped_;
    }

    BitReader& reader() { return r_; }

   private:
    struct Fill {
      const std::uint8_t* p;
      std::uint64_t window;
      int bits;
      std::size_t skipped;  // stuffing and fill bytes stepped over
    };
    // Out of line and by value, so no cursor member ever has its address
    // taken and the whole cursor stays in registers.
    static Fill refill_bytes(const std::uint8_t* p, const std::uint8_t* end,
                             std::uint64_t window, int bits);

    BitReader& r_;
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    std::uint64_t window_;
    int bits_;
    std::size_t skipped_;
  };

  /// True when positioned at a marker (0xFF followed by a non-stuffing,
  /// non-fill byte). Like the other marker helpers this inspects the byte
  /// position, so it is only meaningful when buffered bits have been fully
  /// consumed (start of scan, after a failed read, after take_marker) —
  /// read-ahead buffering may otherwise hold undelivered data bits.
  bool at_marker() const;

  /// If positioned at a marker, returns its code without consuming; 0
  /// otherwise.
  std::uint8_t peek_marker() const;

  /// Consumes a marker (two bytes) and resets bit state. Returns the code.
  std::uint8_t take_marker();

  /// Byte offset of the next unread byte. With read-ahead (a committed
  /// ReadCursor) this can run up to 64 buffered, unconsumed bits past the
  /// logical bit position.
  std::size_t position() const { return pos_; }

  /// Bits buffered but not yet consumed.
  int buffered_bits() const { return bit_count_; }

  /// Data bits consumed since the first byte: stuffing zeros and fill
  /// bytes do not count, so two readers over the same bytes, started at
  /// different data-byte boundaries, agree on where a bit lies up to the
  /// data bytes between their starts. Exact within one entropy-coded
  /// segment (take_marker steps over bytes it does not count).
  std::uint64_t bit_position() const {
    return 8 * static_cast<std::uint64_t>(pos_ - skipped_) -
           static_cast<std::uint64_t>(bit_count_);
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t skipped_ = 0;  // stuffing and fill bytes before pos_
  std::uint64_t acc_ = 0;    // low bit_count_ bits are buffered
  int bit_count_ = 0;
};

}  // namespace dnj::jpeg
