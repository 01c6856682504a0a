// Byte-order-safe serialization for the lingua franca.
//
// The paper deliberately avoided XDR "for fear that it would not be readily
// available in all environments" (Section 2.1) and hand-rolled a portable
// encoding instead. We do the same: all multi-byte integers are written
// little-endian byte-by-byte, floats travel as IEEE-754 bit patterns, and
// strings/blobs are length-prefixed. Reader performs strict bounds checking
// so malformed packets from the wire can never read out of range.
//
// Every protocol family shares two more pieces of the format, defined once
// here: a list is a u32 count followed by its elements (write_list /
// read_list, with Reader::count guarding the count against hostile input),
// and a versioned message opens with a u8 wire version and a u16 message
// kind (write_envelope / read_envelope).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.hpp"

namespace ew {

/// Raw byte buffer used throughout the messaging stack.
using Bytes = std::vector<std::uint8_t>;

/// Appends primitive values to a growing byte buffer in a fixed wire format.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) UTF-8/opaque string: the same bytes as blob().
  void str(std::string_view s) {
    blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Length-prefixed (u32) opaque byte blob.
  void blob(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw bytes with no length prefix (caller manages framing).
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Overwrite 4 already-written bytes at `offset` (little-endian). Lets a
  /// single-pass encoder leave a placeholder for a value — a checksum, a
  /// length — that is only known after the bytes it covers are written.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      buf_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Bounds-checked reader over a byte span. All accessors return Result so
/// that truncated or malicious packets surface as Err::kProtocol, never UB.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int32_t> i32();
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<bool> boolean();
  /// Length-prefixed string (rejects lengths beyond the remaining bytes).
  Result<std::string> str();
  /// Length-prefixed blob.
  Result<Bytes> blob();
  /// Exactly n raw bytes.
  Result<Bytes> raw(std::size_t n);

  /// List count guarded against hostile input: rejected with kProtocol when
  /// above `cap` or above what the remaining bytes can hold at `min_elem`
  /// (>= 1) wire bytes per element, before the caller sizes anything.
  Result<std::uint32_t> count(std::uint32_t cap, std::size_t min_elem,
                              const char* what) {
    auto n = u32();
    if (n && (*n > cap || *n > remaining() / min_elem)) {
      return count_error(*n, cap, what);
    }
    return n;
  }

  /// Zero-copy view of the unread tail (does not consume). Valid as long as
  /// the bytes the Reader was constructed over.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  Result<T> read_le();
  Error count_error(std::uint32_t n, std::uint32_t cap, const char* what) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Writes `items` as a u32 count followed by each element. `write_elem` is
/// either a writer taking (Writer&, elem) or a member taking (Writer&).
template <typename List, typename WriteElem>
void write_list(Writer& w, const List& items, WriteElem write_elem) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& x : items) {
    if constexpr (std::is_invocable_v<WriteElem&, Writer&, decltype(x)>) {
      std::invoke(write_elem, w, x);
    } else {
      std::invoke(write_elem, x, w);
    }
  }
}

/// Reads a list written by write_list: the count passes Reader::count, then
/// `read_elem(r)` decodes each element; the first element error is returned.
template <typename T, typename ReadElem>
Result<std::vector<T>> read_list(Reader& r, std::uint32_t cap,
                                 std::size_t min_elem, const char* what,
                                 ReadElem read_elem) {
  auto n = r.count(cap, min_elem, what);
  if (!n) return n.error();
  std::vector<T> out;
  out.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto e = std::invoke(read_elem, r);
    if (!e) return e.error();
    out.push_back(std::move(*e));
  }
  return out;
}

/// Versioned envelope: u8 wire version, then the u16 message kind.
inline void write_envelope(Writer& w, std::uint8_t version,
                           std::uint16_t kind) {
  w.u8(version);
  w.u16(kind);
}

/// Accepts versions 1..max_version and exactly `kind` (so a payload replayed
/// under the wrong message type fails decode instead of being
/// misinterpreted); returns the sender's version. `family` names the
/// protocol in error messages.
inline Result<std::uint8_t> read_envelope(Reader& r, std::uint8_t max_version,
                                          std::uint16_t kind,
                                          const char* family) {
  auto ver = r.u8();
  if (!ver) return ver.error();
  if (*ver == 0 || *ver > max_version) {
    return Error{Err::kProtocol,
                 std::string("unsupported ") + family + " wire version"};
  }
  auto k = r.u16();
  if (!k) return k.error();
  if (*k != kind) {
    return Error{Err::kProtocol,
                 std::string(family) + " message kind mismatch"};
  }
  return *ver;
}

}  // namespace ew
