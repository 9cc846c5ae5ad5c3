// Adversarial loader suite for the compiled-model artifact format
// (src/serve/artifact.h + CompiledModel::deserialize): every truncation,
// every bit flip and every header tamper of a serialized artifact must
// surface as a typed SerializationError — and structured payload mutations
// that pass the checksum must either load an equivalent model or throw,
// never crash or index out of bounds (ASan/UBSan CI runs this suite by
// name: -R 'Resume|Adversarial').
#include "serve/artifact.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "common/sealed_file.h"
#include "data/generators.h"
#include "forest/forest.h"
#include "boosting/gbdt.h"
#include "linear/linear_model.h"
#include "serve/compiled_model.h"
#include "support/corruption.h"

namespace flaml {
namespace {

using testing::expect_every_bit_flip_throws;
using testing::expect_every_truncation_throws;

Dataset small_data(Task task) {
  SyntheticSpec spec;
  spec.task = task;
  spec.n_rows = 60;
  spec.n_features = 4;
  spec.n_classes = task == Task::MultiClassification ? 3 : 2;
  spec.missing_fraction = 0.1;
  spec.seed = 17;
  return make_synthetic(spec);
}

// A small-but-real artifact of each kind (every code path of the format).
std::string gbdt_payload() {
  const Dataset data = small_data(Task::BinaryClassification);
  GBDTParams params;
  params.n_trees = 3;
  params.max_leaves = 5;
  return serve::compile(train_gbdt(DataView(data), nullptr, params)).serialize();
}

std::string forest_payload() {
  const Dataset data = small_data(Task::MultiClassification);
  ForestParams params;
  params.n_trees = 3;
  params.max_leaves = 6;
  return serve::compile(train_forest(DataView(data), params)).serialize();
}

std::string linear_payload() {
  const Dataset data = small_data(Task::BinaryClassification);
  LinearParams params;
  return serve::compile(train_linear(DataView(data), params)).serialize();
}

void parse_artifact(const std::string& text) {
  serve::CompiledModel::deserialize(unseal(serve::kArtifactFormat, text));
}

// The envelope bytes of a real artifact are pinned, so a change to the
// container code cannot silently change what an artifact file holds.
TEST(CompiledArtifactFormat, EnvelopeBytesArePinned) {
  const std::string text = seal(serve::kArtifactFormat, linear_payload());
  EXPECT_EQ(text.size(), 205u);
  EXPECT_EQ(fnv1a64(text), 0x509b656e898ed831ULL);
}

TEST(CompiledArtifactAdversarial, EveryTruncationThrows) {
  expect_every_truncation_throws(seal(serve::kArtifactFormat, gbdt_payload()), parse_artifact);
}

TEST(CompiledArtifactAdversarial, EveryBitFlipThrows) {
  expect_every_bit_flip_throws(seal(serve::kArtifactFormat, gbdt_payload()), parse_artifact);
}

TEST(CompiledArtifactAdversarial, HeaderTamperingThrows) {
  const std::string payload = linear_payload();
  const std::string text = seal(serve::kArtifactFormat, payload);
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string header = text.substr(0, newline);

  // Wrong magic (including the sibling container's).
  EXPECT_THROW(parse_artifact("flaml-checkpoint v1 1 0000000000000000\n" + payload),
               SerializationError);
  // Unknown versions must be rejected, not silently migrated.
  for (const char* version : {"v0", "v2", "v10"}) {
    EXPECT_THROW(
        parse_artifact("flaml-compiled " + std::string(version) + " " +
                       std::to_string(payload.size()) + " 0000000000000000\n" +
                       payload),
        SerializationError);
  }
  // Declared length shorter / longer than the actual payload.
  for (int delta : {-1, 1}) {
    EXPECT_THROW(
        parse_artifact("flaml-compiled v1 " +
                       std::to_string(payload.size() + delta) +
                       " 0000000000000000\n" + payload),
        SerializationError);
  }
  // Wrong, malformed, uppercase and over-long checksums.
  for (const char* checksum :
       {"0000000000000000", "000000000000000g", "0ABCDEF012345678",
        "00000000000000000", "0"}) {
    EXPECT_THROW(parse_artifact("flaml-compiled v1 " +
                                std::to_string(payload.size()) + " " + checksum +
                                "\n" + payload),
                 SerializationError);
  }
  // Trailing tokens in the header line.
  EXPECT_THROW(parse_artifact(header + " extra\n" + payload), SerializationError);
  // Trailing garbage after a valid envelope.
  EXPECT_THROW(parse_artifact(text + "x"), SerializationError);
  // Missing header newline entirely.
  EXPECT_THROW(parse_artifact(header), SerializationError);
  // Absurd declared size must throw before allocating.
  EXPECT_THROW(parse_artifact("flaml-compiled v1 99999999999999 0000000000000000\n"),
               SerializationError);
}

// Checksum-valid payload corruption: re-wrap every single-byte overwrite of
// the payload with a CORRECT envelope, so the damage reaches the structural
// validator. Each variant must either deserialize (the byte happened to be
// a don't-care, e.g. inside a float) — in which case predicting with it
// must be memory-safe — or throw SerializationError. Never UB: ASan/UBSan
// turn any overrun or uninitialized read into a hard failure here.
void kill_every_byte(const std::string& payload, Task task) {
  SyntheticSpec spec;
  spec.task = task;
  spec.n_rows = 16;
  spec.n_features = 8;
  spec.n_classes = task == Task::MultiClassification ? 3 : 2;
  spec.missing_fraction = 0.2;
  spec.seed = 23;
  const Dataset probe = make_synthetic(spec);
  const DataView view(probe);

  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (const unsigned char value : {0x00, 0xff}) {
      std::string damaged = payload;
      if (static_cast<unsigned char>(damaged[byte]) == value) continue;
      damaged[byte] = static_cast<char>(value);
      try {
        const serve::CompiledModel model = serve::CompiledModel::deserialize(damaged);
        // Survivors must still be safe to serve (validated tables cannot
        // walk out of bounds or loop forever).
        if (model.n_features() <= probe.n_cols()) {
          (void)model.predict_many(view, 2);
        }
      } catch (const SerializationError&) {
        // The expected rejection path.
      }
    }
  }
}

TEST(CompiledArtifactAdversarial, KillEveryByteGbdt) {
  kill_every_byte(gbdt_payload(), Task::BinaryClassification);
}

TEST(CompiledArtifactAdversarial, KillEveryByteForest) {
  kill_every_byte(forest_payload(), Task::MultiClassification);
}

TEST(CompiledArtifactAdversarial, KillEveryByteLinear) {
  kill_every_byte(linear_payload(), Task::BinaryClassification);
}

// Payload truncation behind a valid envelope must be caught by the
// structural reader (bounded reads + require_done), independent of the
// checksum layer the sweeps above exercise.
TEST(CompiledArtifactAdversarial, PayloadTruncationAndTrailingBytesThrow) {
  for (const std::string& payload :
       {gbdt_payload(), forest_payload(), linear_payload()}) {
    for (std::size_t n = 0; n < payload.size(); ++n) {
      EXPECT_THROW(serve::CompiledModel::deserialize(payload.substr(0, n)),
                   SerializationError)
          << "payload truncated to " << n << " of " << payload.size();
    }
    EXPECT_THROW(serve::CompiledModel::deserialize(payload + "x"),
                 SerializationError);
  }
}

// Structural validation of the flat tables themselves: cycles, double
// references, orphans and out-of-range links are each rejected. (A cycle
// reachable from a root necessarily double-references its entry node, so
// the exactly-once reference count is what guarantees termination.)
TEST(CompiledArtifactAdversarial, FlatTableValidation) {
  // Valid two-node tree: root 0 -> leaves ~0, ~1.
  serve::FlatForest good;
  good.feature = {0};
  good.threshold = {0.5f};
  good.category = {-1};
  good.flags = {0};
  good.left = {~0};
  good.right = {~1};
  good.roots = {0};
  good.leaf_value = {1.0, 2.0};
  EXPECT_NO_THROW(good.validate(1));

  {  // Self-cycle: node 0's left edge points back at node 0.
    serve::FlatForest f = good;
    f.left = {0};
    EXPECT_THROW(f.validate(1), SerializationError);
  }
  {  // Double-referenced leaf (and orphaned leaf 1).
    serve::FlatForest f = good;
    f.right = {~0};
    EXPECT_THROW(f.validate(1), SerializationError);
  }
  {  // Out-of-range child.
    serve::FlatForest f = good;
    f.right = {7};
    EXPECT_THROW(f.validate(1), SerializationError);
  }
  {  // Out-of-range leaf reference.
    serve::FlatForest f = good;
    f.right = {~5};
    EXPECT_THROW(f.validate(1), SerializationError);
  }
  {  // Split feature outside the declared feature count.
    serve::FlatForest f = good;
    EXPECT_THROW(f.validate(0), SerializationError);
  }
  {  // Unknown flag bits.
    serve::FlatForest f = good;
    f.flags = {0x80};
    EXPECT_THROW(f.validate(1), SerializationError);
  }
  {  // Orphaned internal node (root skips straight to a leaf).
    serve::FlatForest f = good;
    f.roots = {~0};
    f.right = {~1};
    f.left = {~0};  // still double-references leaf 0 -> rejected
    EXPECT_THROW(f.validate(1), SerializationError);
  }
  {  // Leaf-distribution block size mismatch.
    serve::FlatForest f = good;
    f.dist_width = 2;
    f.leaf_dist = {0.5, 0.5, 1.0};  // needs 2 leaves × 2 = 4 entries
    EXPECT_THROW(f.validate(1), SerializationError);
  }
}

TEST(CompiledArtifactAdversarial, MissingFileThrows) {
  EXPECT_THROW(serve::CompiledModel::load_file(::testing::TempDir() +
                                               "no_such_artifact.bin"),
               SerializationError);
}

}  // namespace
}  // namespace flaml
