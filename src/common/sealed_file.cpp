#include "common/sealed_file.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/error.h"

namespace flaml {

namespace {

// How far a reader looks for the header's newline: far above any magic
// plus " v<int> <20 digits> <16 hex digits>".
constexpr std::size_t kMaxHeaderBytes = 256;

struct Header {
  std::uint64_t nbytes = 0;
  std::uint64_t checksum = 0;
};

bool parse_u64(std::string_view token, int base, std::uint64_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out, base);
  return ec == std::errc() && ptr == end;
}

// Position of the header's newline, looked for in the first
// kMaxHeaderBytes of `text` only.
std::size_t header_end(const SealedFormat& format, std::string_view text) {
  const std::size_t eol = text.substr(0, kMaxHeaderBytes).find('\n');
  FLAML_PARSE_REQUIRE(eol != std::string_view::npos, format.magic << ": header line missing");
  return eol;
}

// Exactly "<magic> v<version> <nbytes> <checksum>", nbytes within the cap.
Header parse_header(const SealedFormat& format, std::string_view line) {
  std::string_view tokens[4];
  std::size_t n = 0;
  for (std::size_t pos = 0; pos <= line.size(); ++n) {
    FLAML_PARSE_REQUIRE(n < 4, format.magic << ": trailing header tokens");
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    tokens[n] = line.substr(pos, end - pos);
    pos = end + 1;
  }
  FLAML_PARSE_REQUIRE(n == 4, format.magic << ": malformed header");
  FLAML_PARSE_REQUIRE(tokens[0] == format.magic, "not a " << format.magic << " file");
  FLAML_PARSE_REQUIRE(tokens[1].substr(0, 1) == "v" &&
                          tokens[1].substr(1) == std::to_string(format.version),
                      "unsupported " << format.magic << " version '" << tokens[1] << "'");
  Header header;
  FLAML_PARSE_REQUIRE(parse_u64(tokens[2], 10, header.nbytes),
                      format.magic << ": malformed payload size '" << tokens[2] << "'");
  // Exactly the 16 lowercase hex digits seal emits: a looser parse would let
  // bit-flipped checksum characters alias to the same value.
  const std::string_view sum = tokens[3];
  FLAML_PARSE_REQUIRE(sum.size() == 16 && sum.find_first_not_of("0123456789abcdef") == sum.npos &&
                          parse_u64(sum, 16, header.checksum),
                      format.magic << ": malformed checksum '" << sum << "'");
  // Reject absurd declared sizes before anything can allocate them.
  FLAML_PARSE_REQUIRE(header.nbytes <= format.max_bytes,
                      format.magic << ": payload of " << header.nbytes << " bytes exceeds the "
                                   << format.max_bytes << "-byte cap");
  return header;
}

void check_length(const SealedFormat& format, const Header& header, std::uint64_t actual) {
  FLAML_PARSE_REQUIRE(actual == header.nbytes, format.magic << ": payload has " << actual
                                                            << " bytes, header declares "
                                                            << header.nbytes);
}

void check_checksum(const SealedFormat& format, const Header& header, std::string_view payload) {
  FLAML_PARSE_REQUIRE(fnv1a64(payload) == header.checksum, format.magic << ": checksum mismatch");
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t content_fingerprint(std::string_view bytes) {
  return fnv1a64(bytes) ^ bytes.size();
}

std::string seal(const SealedFormat& format, std::string_view payload) {
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  std::string out(format.magic);
  out += " v";
  out += std::to_string(format.version);
  out += ' ';
  out += std::to_string(payload.size());
  out += ' ';
  out += checksum;
  out += '\n';
  out += payload;
  return out;
}

std::string unseal(const SealedFormat& format, std::string_view text) {
  const std::size_t eol = header_end(format, text);
  const Header header = parse_header(format, text.substr(0, eol));
  const std::string_view payload = text.substr(eol + 1);
  check_length(format, header, payload.size());
  check_checksum(format, header, payload);
  return std::string(payload);
}

void write_file_durable(const std::string& path, std::string_view contents) {
  FLAML_REQUIRE(!path.empty(), "file path must be non-empty");
  const std::string tmp = path + ".tmp";
#ifndef _WIN32
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  FLAML_REQUIRE(fd >= 0, "cannot open '" << tmp << "' for writing — "
                                         << std::strerror(errno));
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n = ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      FLAML_REQUIRE(false, "failed writing '" << tmp << "' — " << std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
  // write() only hands the bytes to the page cache: without the fsync a
  // crash can keep the rename (metadata) but lose the data, leaving a
  // valid-looking path that holds a truncated file.
  const bool synced = ::fsync(fd) == 0;
  const int sync_err = errno;
  FLAML_REQUIRE(::close(fd) == 0, "failed closing '" << tmp << "'");
  FLAML_REQUIRE(synced, "fsync('" << tmp << "') failed — " << std::strerror(sync_err));
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    FLAML_REQUIRE(out.flush().good(), "failed writing '" << tmp << "'");
  }
#endif
  // Atomic replace: a crash before this point leaves the previous file.
  FLAML_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                "failed to rename '" << tmp << "' to '" << path << "' — "
                                     << std::strerror(errno));
#ifndef _WIN32
  // Without the directory fsync the rename itself can vanish in a crash.
  // Best effort: some filesystems refuse to open or sync a directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir_path =
      slash == std::string::npos ? "." : path.substr(0, std::max<std::size_t>(slash, 1));
  const int dir = ::open(dir_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir >= 0) {
    ::fsync(dir);
    ::close(dir);
  }
#endif
}

std::string read_sealed_file(const std::string& path, const SealedFormat& format) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    // The final file is missing but its tmp survives: the writer died
    // mid-write. Name that instead of a generic "cannot open", and never
    // load the possibly half-written tmp in its place.
    FLAML_PARSE_REQUIRE(!std::ifstream(path + ".tmp").is_open(),
                        "'" << path << "' is missing but a leftover '" << path
                            << ".tmp' exists — the writer was interrupted "
                               "mid-write; the tmp file may be half-written "
                               "and will not be loaded");
    FLAML_PARSE_REQUIRE(false, "cannot open " << format.magic << " file '" << path << "'");
  }
  const std::streamoff file_size = in.tellg();
  FLAML_PARSE_REQUIRE(file_size >= 0, "cannot size '" << path << "'");
  in.seekg(0);
  char head[kMaxHeaderBytes];
  const std::streamsize head_size = std::min<std::streamoff>(file_size, kMaxHeaderBytes);
  FLAML_PARSE_REQUIRE(in.read(head, head_size), "failed reading '" << path << "'");
  const std::string_view prefix(head, static_cast<std::size_t>(head_size));
  const std::size_t eol = header_end(format, prefix);
  const Header header = parse_header(format, prefix.substr(0, eol));
  check_length(format, header, static_cast<std::uint64_t>(file_size) - (eol + 1));
  // Only now, with the size checked against the cap and the file, allocate.
  std::string payload(header.nbytes, '\0');
  in.seekg(static_cast<std::streamoff>(eol + 1));
  FLAML_PARSE_REQUIRE(in.read(payload.data(), static_cast<std::streamsize>(payload.size())),
                      "failed reading '" << path << "'");
  check_checksum(format, header, payload);
  return payload;
}

}  // namespace flaml
