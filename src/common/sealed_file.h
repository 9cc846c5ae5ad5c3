// The one container for files a search hands to another process: search
// checkpoints (src/resume/checkpoint.h) and compiled serving artifacts
// (src/serve/artifact.h).
//
//   <magic> v<version> <nbytes> <fnv64hex>\n
//   <exactly nbytes payload bytes>
//
// <fnv64hex> is the FNV-1a 64 of the payload as exactly 16 lowercase hex
// digits, so any truncation or bit flip, in the header or the payload,
// surfaces as a SerializationError, never as a silently different file.
// A reader checks, in order: four header tokens, the magic, the version,
// the checksum's shape, the declared size against the format's cap, the
// actual payload length, and the checksum. The file reader makes the first
// five checks and compares the declared size with the file's size before it
// allocates anything, so a huge or lying file costs one header read.
//
// Writes are durable and atomic: the bytes go to "<path>.tmp" and are
// synced to disk, the tmp atomically replaces `path`, and the directory
// entry is synced, so a crash at any point leaves either the previous file
// or the new one, never a torn one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace flaml {

// A sealed-file format: the header's magic and version, and the largest
// payload (bytes) a reader accepts.
struct SealedFormat {
  std::string_view magic;
  int version;
  std::uint64_t max_bytes;
};

// FNV-1a 64-bit over a byte range (the container checksum).
std::uint64_t fnv1a64(std::string_view bytes);

// Change-detection fingerprint of a file's contents: FNV-1a 64 xor length.
std::uint64_t content_fingerprint(std::string_view bytes);

std::string seal(const SealedFormat& format, std::string_view payload);
// Verifies the header and checksum of `text`; returns the payload. Throws
// SerializationError on any damage or on trailing bytes.
std::string unseal(const SealedFormat& format, std::string_view text);

// Durable atomic replace of `path` with `contents` (see above). Throws
// InvalidArgument when the file cannot be written, synced or moved.
void write_file_durable(const std::string& path, std::string_view contents);

// Bounded read of a sealed file; returns the verified payload. A `path`
// that is missing while "<path>.tmp" exists throws a SerializationError
// naming the tmp: the writer was interrupted, and a possibly half-written
// tmp is never read in its place.
std::string read_sealed_file(const std::string& path, const SealedFormat& format);

}  // namespace flaml
