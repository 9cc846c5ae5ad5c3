// On-disk format of compiled serving models: a sealed file
// (src/common/sealed_file.h: the magic/version/size/checksum header, the
// durable atomic write and the bounded reader) whose payload is written by
// CompiledModel::serialize with ByteWriter and read back with ByteReader.
//
// ByteWriter/ByteReader are the payload codec: explicit little-endian
// integer/IEEE-754 encoding (independent of host endianness), with every
// read bounds-checked against the remaining payload before it happens.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/error.h"
#include "common/sealed_file.h"

namespace flaml::serve {

inline constexpr SealedFormat kArtifactFormat{"flaml-compiled", 1, 1ull << 31};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1, "u8");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  // Read an element count and reject any value whose `elem_size`-byte
  // elements could not fit in the remaining payload — so a corrupted count
  // can never drive an oversized allocation.
  std::size_t count(std::size_t elem_size, const char* what) {
    const std::uint32_t n = u32();
    FLAML_PARSE_REQUIRE(elem_size == 0 || n <= remaining() / elem_size,
                        "compiled artifact: " << what << " count " << n
                            << " exceeds the remaining " << remaining()
                            << " payload bytes");
    return n;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

  // Reject trailing bytes: a valid artifact is consumed exactly.
  void require_done() const {
    FLAML_PARSE_REQUIRE(pos_ == bytes_.size(),
                        "compiled artifact: " << remaining()
                            << " trailing payload bytes");
  }

 private:
  void need(std::size_t n, const char* what) {
    FLAML_PARSE_REQUIRE(remaining() >= n,
                        "compiled artifact: truncated payload reading " << what);
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace flaml::serve
