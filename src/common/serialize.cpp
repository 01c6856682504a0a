#include "common/serialize.hpp"

namespace ew {

template <typename T>
Result<T> Reader::read_le() {
  if (remaining() < sizeof(T)) {
    return Error{Err::kProtocol, "truncated: need " + std::to_string(sizeof(T)) +
                                     " bytes, have " + std::to_string(remaining())};
  }
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
  }
  pos_ += sizeof(T);
  return v;
}

Result<std::uint8_t> Reader::u8() { return read_le<std::uint8_t>(); }
Result<std::uint16_t> Reader::u16() { return read_le<std::uint16_t>(); }
Result<std::uint32_t> Reader::u32() { return read_le<std::uint32_t>(); }
Result<std::uint64_t> Reader::u64() { return read_le<std::uint64_t>(); }

Result<std::int32_t> Reader::i32() {
  auto r = read_le<std::uint32_t>();
  if (!r) return r.error();
  return static_cast<std::int32_t>(*r);
}

Result<std::int64_t> Reader::i64() {
  auto r = read_le<std::uint64_t>();
  if (!r) return r.error();
  return static_cast<std::int64_t>(*r);
}

Result<double> Reader::f64() {
  auto r = read_le<std::uint64_t>();
  if (!r) return r.error();
  return std::bit_cast<double>(*r);
}

Result<bool> Reader::boolean() {
  auto r = read_le<std::uint8_t>();
  if (!r) return r.error();
  if (*r > 1) return Error{Err::kProtocol, "bad boolean encoding"};
  return *r == 1;
}

Result<std::string> Reader::str() {
  auto len = u32();
  if (!len) return len.error();
  if (remaining() < *len) {
    return Error{Err::kProtocol, "string length " + std::to_string(*len) +
                                     " exceeds remaining " + std::to_string(remaining())};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return s;
}

Result<Bytes> Reader::blob() {
  auto len = u32();
  if (!len) return len.error();
  return raw(*len);
}

Result<Bytes> Reader::raw(std::size_t n) {
  if (remaining() < n) {
    return Error{Err::kProtocol, "blob length " + std::to_string(n) +
                                     " exceeds remaining " + std::to_string(remaining())};
  }
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

Error Reader::count_error(std::uint32_t n, std::uint32_t cap,
                         const char* what) const {
  if (n > cap) {
    return Error{Err::kProtocol, std::string(what) + " count " +
                                     std::to_string(n) + " exceeds cap " +
                                     std::to_string(cap)};
  }
  return Error{Err::kProtocol, std::string(what) + " count " +
                                   std::to_string(n) + " exceeds payload"};
}

}  // namespace ew
