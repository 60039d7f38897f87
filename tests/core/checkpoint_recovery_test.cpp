// Corrupt-checkpoint recovery corpus (docs/robustness.md): truncations at
// section boundaries, flipped checksum bytes, wrong magic and oversized
// count headers must all surface as typed SerializationErrors — and a
// failed load must leave the live model bitwise unchanged. The kill-tests
// arm the core.ckpt.* fault sites to simulate a crash mid-save and assert
// the crash-atomic tmp-then-rename protocol keeps the previous file loadable
// bit-identically.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "base/fault.hpp"
#include "core/pruning.hpp"
#include "core/serialization.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace rpbcm::core {
namespace {

using Kind = SerializationError::Kind;

std::unique_ptr<nn::Sequential> small_model(std::uint64_t seed = 3) {
  models::ScaledNetConfig cfg;
  cfg.base_width = 8;
  cfg.classes = 4;
  cfg.kind = models::ConvKind::kHadaBcm;
  cfg.block_size = 4;
  cfg.seed = seed;
  return models::make_scaled_vgg(cfg);
}

// Bitwise fingerprint of the whole model state (params, buffers, masks):
// the serialized image itself.
std::string fingerprint(nn::Sequential& model) {
  std::stringstream buf;
  save_checkpoint(model, buf);
  return buf.str();
}

std::string temp_path(const char* tag) {
  static int counter = 0;
  const std::string p = ::testing::TempDir() + "rpbcm_ckpt_recovery_" + tag +
                        "_" + std::to_string(++counter) + ".bin";
  std::remove(p.c_str());
  std::remove((p + ".tmp").c_str());
  return p;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return is.is_open();
}

Kind load_kind(nn::Sequential& model, const std::string& bytes) {
  std::stringstream is(bytes);
  try {
    load_checkpoint(model, is);
  } catch (const SerializationError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "load_checkpoint unexpectedly succeeded";
  return Kind::kIo;
}

class CheckpointRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { base::FaultRegistry::global().reset(); }
};

TEST_F(CheckpointRecoveryTest, TruncationCorpusLeavesModelUnchanged) {
  auto a = small_model(3);
  auto set = BcmLayerSet::collect(*a);
  BcmPruner::apply_ratio(set, 0.3F);
  const std::string full = fingerprint(*a);
  const std::string before = full;

  // Strategic cut points: inside the magic, right after the magic, inside
  // the param-count word, mid-payload, just before the checksum, and one
  // byte short of a complete file.
  const std::size_t cuts[] = {0,
                              3,
                              8,
                              12,
                              16,
                              full.size() / 3,
                              full.size() / 2,
                              full.size() - 9,
                              full.size() - 1};
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const Kind kind = load_kind(*a, full.substr(0, cut));
    EXPECT_EQ(kind, Kind::kTruncated);
    EXPECT_EQ(fingerprint(*a), before);  // bitwise unchanged
  }
}

TEST_F(CheckpointRecoveryTest, FlippedChecksumByteIsChecksumMismatch) {
  auto a = small_model(3);
  const std::string before = fingerprint(*a);
  std::string data = before;
  data[data.size() - 4] ^= 0x01;  // inside the stored checksum
  EXPECT_EQ(load_kind(*a, data), Kind::kChecksumMismatch);
  EXPECT_EQ(fingerprint(*a), before);

  // A payload flip in the float data is only catchable by the checksum —
  // and must also leave the model untouched (values are staged, never
  // written before verification).
  std::string payload = before;
  payload[payload.size() / 2] ^= 0x40;
  std::stringstream is(payload);
  try {
    load_checkpoint(*a, is);
    ADD_FAILURE() << "corrupt payload accepted";
  } catch (const SerializationError& e) {
    EXPECT_GT(e.byte_offset(), 0u);
  }
  EXPECT_EQ(fingerprint(*a), before);
}

TEST_F(CheckpointRecoveryTest, WrongMagicIsBadMagic) {
  auto a = small_model(3);
  const std::string before = fingerprint(*a);
  std::string data = before;
  data[0] = 'X';
  EXPECT_EQ(load_kind(*a, data), Kind::kBadMagic);

  EXPECT_EQ(load_kind(*a, std::string("GARBAGEDATA_____________")),
            Kind::kBadMagic);
  EXPECT_EQ(fingerprint(*a), before);
}

TEST_F(CheckpointRecoveryTest, OversizedCountHeadersFailFast) {
  auto a = small_model(3);
  const std::string before = fingerprint(*a);

  // Craft magic + an absurd param count: must be kArchMismatch before any
  // allocation is attempted.
  std::string data = before.substr(0, 8);
  const std::uint64_t huge = ~0ull;
  data.append(reinterpret_cast<const char*>(&huge), sizeof huge);
  EXPECT_EQ(load_kind(*a, data), Kind::kArchMismatch);
  EXPECT_EQ(fingerprint(*a), before);
}

TEST_F(CheckpointRecoveryTest, ArchMismatchIsTyped) {
  auto a = small_model(3);
  models::ScaledNetConfig other;
  other.base_width = 16;  // different widths
  other.classes = 4;
  other.kind = models::ConvKind::kHadaBcm;
  other.block_size = 4;
  auto b = models::make_scaled_vgg(other);
  const std::string b_before = fingerprint(*b);
  EXPECT_EQ(load_kind(*b, fingerprint(*a)), Kind::kArchMismatch);
  EXPECT_EQ(fingerprint(*b), b_before);
}

TEST_F(CheckpointRecoveryTest, InjectedCrashBeforeRenameKeepsPreviousFile) {
  auto a = small_model(3);
  const std::string path = temp_path("rename_crash");
  save_checkpoint(*a, path);
  const std::string v1_bytes = slurp(path);
  ASSERT_FALSE(v1_bytes.empty());

  // Mutate the model so v2 would differ, then crash between the tmp write
  // and the rename.
  a->params()[0]->value.data()[0] += 1.0F;
  a->params()[0]->mark_updated();
  base::FaultRegistry::global().arm_from_string("core.ckpt.rename:once=1");
  try {
    save_checkpoint(*a, path);
    FAIL() << "injected crash did not fire";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.kind(), Kind::kIo);
  }

  // The previous checkpoint is bit-identical on disk and still loads; the
  // interrupted attempt left only a stray .tmp, like a real crash.
  EXPECT_EQ(slurp(path), v1_bytes);
  EXPECT_TRUE(file_exists(path + ".tmp"));
  auto b = small_model(99);
  load_checkpoint(*b, path);
  std::stringstream v1(v1_bytes);
  auto c = small_model(99);
  load_checkpoint(*c, v1);
  EXPECT_EQ(fingerprint(*b), fingerprint(*c));

  // The next save (fault disarmed after once=1) replaces the file cleanly.
  save_checkpoint(*a, path);
  auto d = small_model(99);
  load_checkpoint(*d, path);
  EXPECT_EQ(fingerprint(*d), fingerprint(*a));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(CheckpointRecoveryTest, InjectedWriteFaultLeavesPreviousFileIntact) {
  auto a = small_model(3);
  const std::string path = temp_path("write_fault");
  save_checkpoint(*a, path);
  const std::string v1_bytes = slurp(path);

  base::FaultRegistry::global().arm_from_string("core.ckpt.write:once=5");
  try {
    save_checkpoint(*a, path);
    FAIL() << "injected write fault did not fire";
  } catch (const SerializationError& e) {
    EXPECT_EQ(e.kind(), Kind::kIo);
    EXPECT_GT(e.byte_offset(), 0u);
  }
  // Failed tmp write: tmp cleaned up, previous file untouched.
  EXPECT_EQ(slurp(path), v1_bytes);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rpbcm::core
