// Sealed-file container suite (src/common/sealed_file.h), run from one table
// over both formats that use it, search checkpoints and compiled artifacts:
// strict header rules in memory and on disk, bounded file reads (a sparse
// file past the 2 GiB cap is refused from its header alone), the durable
// write and the interrupted-writer error. ASan/UBSan CI runs this suite by
// name.
#include "common/sealed_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "resume/checkpoint.h"
#include "serve/artifact.h"

namespace flaml {
namespace {

const SealedFormat kFormats[] = {resume::kCheckpointFormat, serve::kArtifactFormat};

// Binary, with a newline and a NUL, so the payload is never parsed as text.
const std::string kPayload("sealed\npayload\0\xff bytes", 23);

std::string file_path(const SealedFormat& format, const std::string& name) {
  return ::testing::TempDir() + "sealed_" + std::string(format.magic) + "_" + name;
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Every damaged form of kPayload sealed in `format`; a reader must refuse
// each one.
std::vector<std::pair<std::string, std::string>> tampered(const SealedFormat& format) {
  const std::string text = seal(format, kPayload);
  const std::string header = text.substr(0, text.find('\n'));
  const std::string magic(format.magic);
  const std::string other(format.magic == resume::kCheckpointFormat.magic
                              ? serve::kArtifactFormat.magic
                              : resume::kCheckpointFormat.magic);
  const std::string v = "v" + std::to_string(format.version);
  const std::string size = std::to_string(kPayload.size());
  const std::string sum = hex16(fnv1a64(kPayload));
  std::string upper = sum;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  const auto make = [&](const std::string& m, const std::string& ver,
                        const std::string& n, const std::string& c) {
    return m + " " + ver + " " + n + " " + c + "\n" + kPayload;
  };
  return {
      {"the other format's magic", make(other, v, size, sum)},
      {"older version", make(magic, "v" + std::to_string(format.version - 1), size, sum)},
      {"newer version", make(magic, "v" + std::to_string(format.version + 1), size, sum)},
      {"version without its v", make(magic, std::to_string(format.version), size, sum)},
      {"size one short", make(magic, v, std::to_string(kPayload.size() - 1), sum)},
      {"size one long", make(magic, v, std::to_string(kPayload.size() + 1), sum)},
      {"negative size", make(magic, v, "-1", sum)},
      {"signed size", make(magic, v, "+" + size, sum)},
      {"size past the cap", make(magic, v, std::to_string(format.max_bytes + 1), sum)},
      {"size past 64 bits", make(magic, v, "99999999999999999999999", sum)},
      {"wrong checksum", make(magic, v, size, "0000000000000000")},
      {"uppercase checksum", make(magic, v, size, upper)},
      {"short checksum", make(magic, v, size, sum.substr(1))},
      {"long checksum", make(magic, v, size, "0" + sum)},
      {"non-hex checksum", make(magic, v, size, sum.substr(1) + "g")},
      {"trailing header token", header + " junk\n" + kPayload},
      {"doubled space", magic + "  " + v + " " + size + " " + sum + "\n" + kPayload},
      {"missing checksum", magic + " " + v + " " + size + "\n" + kPayload},
      {"trailing byte", text + "x"},
      {"no header newline", header},
      {"empty", ""},
  };
}

TEST(SealedFile, FnvMatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(content_fingerprint("foobar"), fnv1a64("foobar") ^ 6u);
}

TEST(SealedFile, RoundTripsInMemoryAndOnDisk) {
  for (const SealedFormat& format : kFormats) {
    for (const std::string& payload : {std::string(), kPayload}) {
      const std::string text = seal(format, payload);
      EXPECT_EQ(text.rfind(std::string(format.magic) + " v", 0), 0u) << text;
      EXPECT_EQ(unseal(format, text), payload);
      const std::string path = file_path(format, "roundtrip");
      write_file_durable(path, text);
      EXPECT_EQ(read_sealed_file(path, format), payload);
      std::remove(path.c_str());
    }
  }
}

TEST(SealedFile, TamperedFilesThrowInMemoryAndOnDisk) {
  for (const SealedFormat& format : kFormats) {
    const std::string path = file_path(format, "tampered");
    for (const auto& [name, text] : tampered(format)) {
      EXPECT_THROW(unseal(format, text), SerializationError) << format.magic << ": " << name;
      write_raw(path, text);
      EXPECT_THROW(read_sealed_file(path, format), SerializationError)
          << format.magic << ": " << name;
    }
    std::remove(path.c_str());
  }
}

// A file far past the cap is refused from its header: the reader compares
// the declared size with the cap and the file's size before it allocates
// or reads the payload. Reading the file whole would take seconds and
// 2 GiB of memory.
TEST(SealedFile, SparseFilePastTheCapIsRefusedFromItsHeader) {
  for (const SealedFormat& format : kFormats) {
    const std::string path = file_path(format, "sparse");
    const std::string over_cap = std::string(format.magic) + " v" +
                                 std::to_string(format.version) + " " +
                                 std::to_string(format.max_bytes + 1) + " " + hex16(0) + "\n";
    // A valid small header over a huge file, and a header that declares the
    // file's true, over-cap size.
    const std::vector<std::pair<std::string, std::uint64_t>> cases = {
        {seal(format, kPayload), format.max_bytes + 4096},
        {over_cap, over_cap.size() + format.max_bytes + 1}};
    for (const auto& [head, size] : cases) {
      write_raw(path, head);
      std::filesystem::resize_file(path, size);
      const auto start = std::chrono::steady_clock::now();
      EXPECT_THROW(read_sealed_file(path, format), SerializationError) << format.magic;
      const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
      EXPECT_LT(took.count(), 1.0) << format.magic;
    }
    std::remove(path.c_str());
  }
}

TEST(SealedFile, MissingFileWithALeftoverTmpNamesTheInterruptedWriter) {
  for (const SealedFormat& format : kFormats) {
    const std::string path = file_path(format, "orphan");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    EXPECT_THROW(read_sealed_file(path, format), SerializationError);

    write_raw(path + ".tmp", seal(format, kPayload));
    try {
      read_sealed_file(path, format);
      ADD_FAILURE() << format.magic << ": a leftover tmp was read in place of the file";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find("interrupted"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(".tmp"), std::string::npos) << e.what();
    }
    std::remove((path + ".tmp").c_str());
  }
}

TEST(SealedFile, DurableWriteReplacesTheFileAndLeavesNoTmp) {
  const std::string path = file_path(serve::kArtifactFormat, "durable");
  write_file_durable(path, "first");
  write_file_durable(path, seal(serve::kArtifactFormat, kPayload));
  EXPECT_EQ(read_sealed_file(path, serve::kArtifactFormat), kPayload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());

  const std::string nowhere = ::testing::TempDir() + "no_such_dir/sealed.bin";
  EXPECT_THROW(write_file_durable(nowhere, "x"), InvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(nowhere));
}

}  // namespace
}  // namespace flaml
