#include "jpeg/bitio.hpp"

#include <stdexcept>

#include "simd/dispatch.hpp"

namespace dnj::jpeg {

void BitWriter::spill() {
  if (buf_len_ == 0) return;
  if (!stuff_) {
    out_.insert(out_.end(), buf_.data(), buf_.data() + buf_len_);
    buf_len_ = 0;
    return;
  }
  // Stuff into a stack staging area, then append in one insert. The kernel
  // contract guarantees at most 2x growth, and the vector sees exactly one
  // range insert per spill instead of per-byte push_backs.
  std::uint8_t stuffed[2 * kBufSize];
  const std::size_t n = simd::kernels().stuff_bytes(buf_.data(), buf_len_, stuffed);
  out_.insert(out_.end(), stuffed, stuffed + n);
  buf_len_ = 0;
}

void BitWriter::drain_whole_bytes() {
  while (bit_count_ >= 8) {
    if (buf_len_ + 1 > kBufSize) spill();
    buf_[buf_len_++] = static_cast<std::uint8_t>((acc_ >> (bit_count_ - 8)) & 0xFF);
    bit_count_ -= 8;
  }
}

void BitWriter::flush() {
  // Drain whole bytes, then pad the partial byte with 1-bits per T.81
  // B.1.1.5, then push the staging buffer out (stuffing happens there).
  drain_whole_bytes();
  if (bit_count_ > 0) {
    const int pad = 8 - bit_count_;
    if (buf_len_ + 1 > kBufSize) spill();
    buf_[buf_len_++] =
        static_cast<std::uint8_t>(((acc_ << pad) | ((1u << pad) - 1u)) & 0xFF);
    bit_count_ = 0;
  }
  acc_ = 0;
  spill();
}

void BitWriter::put_marker(std::uint8_t code) {
  flush();
  out_.push_back(0xFF);
  out_.push_back(code);
}

BitWriter::Tail BitWriter::take_tail() {
  drain_whole_bytes();
  spill();
  const Tail tail{static_cast<std::uint32_t>(acc_ & ((1u << bit_count_) - 1u)), bit_count_};
  acc_ = 0;
  bit_count_ = 0;
  return tail;
}

void BitWriter::put_bytes(const std::uint8_t* p, std::size_t n) {
  drain_whole_bytes();
  const int k = bit_count_;  // pending bits, < 8
  std::uint64_t carry = acc_ & ((1u << k) - 1u);
  while (n > 0) {
    if (buf_len_ + 8 > kBufSize) spill();
    if (n < 8) {
      for (; n > 0; --n, ++p) {
        buf_[buf_len_++] = static_cast<std::uint8_t>((carry << (8 - k)) | (*p >> k));
        carry = *p & ((1u << k) - 1u);
      }
      break;
    }
    // Eight source bytes become eight output bytes: the pending bits on
    // top, the source shifted down under them, its low k bits carried.
    const std::uint64_t w = detail::load_be64(p);
    store_be64(&buf_[buf_len_], k == 0 ? w : (carry << (64 - k)) | (w >> k));
    carry = w & ((1ull << k) - 1ull);
    buf_len_ += 8;
    p += 8;
    n -= 8;
  }
  acc_ = carry;
}

namespace {

// Next unstuffed data byte at `p`, advancing `p` past it (and past any
// 0xFF fill bytes in front of it); -1 at a marker or the end of data, with
// `p` left in front of the marker. Every byte stepped over that is not
// data (a stuffing zero, a fill byte) adds one to `skipped`.
int next_data_byte(const std::uint8_t*& p, const std::uint8_t* end, std::size_t& skipped) {
  while (p < end) {
    const std::uint8_t b = *p;
    if (b != 0xFF) {
      ++p;
      return b;
    }
    // 0xFF: look at the next byte.
    if (end - p < 2) return -1;
    const std::uint8_t next = p[1];
    if (next == 0x00) {  // stuffed data byte
      p += 2;
      ++skipped;
      return 0xFF;
    }
    if (next == 0xFF) {  // fill byte, skip one 0xFF and retry
      ++p;
      ++skipped;
      continue;
    }
    return -1;  // real marker: stop bit delivery
  }
  return -1;
}

}  // namespace

BitReader::ReadCursor::Fill BitReader::ReadCursor::refill_bytes(const std::uint8_t* p,
                                                                const std::uint8_t* end,
                                                                std::uint64_t window,
                                                                int bits) {
  // Any overlap bits a fast refill left below `bits` are the unstuffed
  // values of exactly these bytes, so OR-ing them in again is a no-op.
  std::size_t skipped = 0;
  while (bits <= 56) {
    const int b = next_data_byte(p, end, skipped);
    if (b < 0) break;
    window |= static_cast<std::uint64_t>(b) << (56 - bits);
    bits += 8;
  }
  return {p, window, bits, skipped};
}

std::int32_t BitReader::get_bits(int count) {
  if (count == 0) return 0;
  const std::uint8_t* p = data_ + pos_;
  while (bit_count_ < count) {
    const int b = next_data_byte(p, data_ + size_, skipped_);
    if (b < 0) {
      pos_ = static_cast<std::size_t>(p - data_);
      return -1;
    }
    acc_ = (acc_ << 8) | static_cast<std::uint64_t>(b);
    bit_count_ += 8;
  }
  pos_ = static_cast<std::size_t>(p - data_);
  bit_count_ -= count;
  return static_cast<std::int32_t>((acc_ >> bit_count_) & ((1ull << count) - 1ull));
}

std::int32_t BitReader::get_bit() { return get_bits(1); }

bool BitReader::at_marker() const { return peek_marker() != 0; }

std::uint8_t BitReader::peek_marker() const {
  std::size_t p = pos_;
  while (p + 1 < size_ && data_[p] == 0xFF && data_[p + 1] == 0xFF) ++p;
  if (p + 1 < size_ && data_[p] == 0xFF && data_[p + 1] != 0x00) return data_[p + 1];
  return 0;
}

std::uint8_t BitReader::take_marker() {
  while (pos_ + 1 < size_ && data_[pos_] == 0xFF && data_[pos_ + 1] == 0xFF) ++pos_;
  if (pos_ + 1 >= size_ || data_[pos_] != 0xFF)
    throw std::runtime_error("BitReader: expected marker");
  const std::uint8_t code = data_[pos_ + 1];
  pos_ += 2;
  acc_ = 0;
  bit_count_ = 0;
  return code;
}

}  // namespace dnj::jpeg
