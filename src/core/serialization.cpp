#include "core/serialization.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "base/fault.hpp"
#include "core/pruning.hpp"
#include "nn/batchnorm.hpp"

namespace rpbcm::core {

namespace {

using Kind = SerializationError::Kind;

constexpr char kCheckpointMagic[8] = {'R', 'P', 'B', 'C', 'M', 'C', 'K', '1'};

[[noreturn]] void fail(Kind kind, std::uint64_t offset, const std::string& msg) {
  std::ostringstream os;
  os << msg << " (kind=" << serialization_error_kind_name(kind)
     << ", byte offset " << offset << ')';
  throw SerializationError(kind, offset, os.str());
}

// Streaming FNV-1a over everything written/read, so truncation and bit rot
// are caught on load.
class Fnv1a {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Checked writer: every stream operation is verified and failures surface
// as SerializationError{kIo} with the offset of the failing field. The
// fault site ("core.ckpt.write") lets chaos runs simulate an EIO mid-stream
// at a deterministic byte.
class Writer {
 public:
  Writer(std::ostream& os, const char* fault_site)
      : os_(os), fault_site_(fault_site) {}

  void raw(const void* data, std::size_t n) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    RPBCM_FAULT_POINT(fault_site_, os_.setstate(std::ios::badbit));
    if (!os_.good())
      fail(Kind::kIo, offset_,
           "stream write of " + std::to_string(n) + " bytes failed");
    fnv_.update(data, n);
    offset_ += n;
  }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void finish() {
    const std::uint64_t sum = fnv_.value();
    os_.write(reinterpret_cast<const char*>(&sum), sizeof sum);
    RPBCM_FAULT_POINT(fault_site_, os_.setstate(std::ios::badbit));
    if (!os_.good()) fail(Kind::kIo, offset_, "checksum write failed");
  }

 private:
  std::ostream& os_;
  const char* fault_site_;
  Fnv1a fnv_;
  std::uint64_t offset_ = 0;
};

// Checked reader: short reads distinguish stream errors (kIo) from clean
// truncation (kTruncated), and every error carries the offset of the first
// byte of the field being read.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  std::uint64_t offset() const { return offset_; }

  void raw(void* data, std::size_t n) {
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (is_.gcount() != static_cast<std::streamsize>(n)) {
      if (is_.bad()) fail(Kind::kIo, offset_, "stream read error");
      fail(Kind::kTruncated, offset_,
           "unexpected end of stream: wanted " + std::to_string(n) +
               " bytes, got " + std::to_string(is_.gcount()));
    }
    fnv_.update(data, n);
    offset_ += n;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const auto at = offset_;
    const auto n = u32();
    if (n >= (1u << 20))
      fail(Kind::kFormat, at,
           "implausible string length " + std::to_string(n));
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  void verify_checksum() {
    const std::uint64_t expect = fnv_.value();
    std::uint64_t stored = 0;
    is_.read(reinterpret_cast<char*>(&stored), sizeof stored);
    if (is_.gcount() != static_cast<std::streamsize>(sizeof stored)) {
      if (is_.bad()) fail(Kind::kIo, offset_, "stream read error");
      fail(Kind::kTruncated, offset_, "missing checksum");
    }
    if (stored != expect)
      fail(Kind::kChecksumMismatch, offset_,
           "checksum mismatch — corrupt file");
  }

 private:
  std::istream& is_;
  Fnv1a fnv_;
  std::uint64_t offset_ = 0;
};

// Persistent non-parameter state (BatchNorm running statistics), in
// visitation order.
std::vector<tensor::Tensor*> collect_buffers(nn::Sequential& model) {
  std::vector<tensor::Tensor*> bufs;
  model.visit([&bufs](nn::Layer& l) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&l)) {
      bufs.push_back(&bn->running_mean());
      bufs.push_back(&bn->running_var());
    }
  });
  return bufs;
}

// All skip masks of a model (BcmLinear heads included), in visitation order.
std::vector<std::vector<std::uint8_t>> collect_masks(nn::Sequential& model) {
  std::vector<std::vector<std::uint8_t>> masks;
  model.visit([&masks](nn::Layer& l) {
    if (auto* c = dynamic_cast<BcmConv2d*>(&l))
      masks.push_back(c->skip_index());
  });
  return masks;
}

void restore_masks(nn::Sequential& model,
                   std::vector<std::vector<std::uint8_t>> masks) {
  std::size_t i = 0;
  model.visit([&](nn::Layer& l) {
    if (auto* c = dynamic_cast<BcmConv2d*>(&l)) {
      RPBCM_CHECK_MSG(i < masks.size(), "checkpoint has too few skip masks");
      c->set_skip_index(std::move(masks[i++]));
    }
  });
  RPBCM_CHECK_MSG(i == masks.size(), "checkpoint has too many skip masks");
}

#if defined(__unix__) || defined(__APPLE__)
// Push file contents to stable storage; the crash-atomicity of the
// tmp-then-rename protocol depends on the data hitting the platter before
// the rename does.
void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(Kind::kIo, 0, "cannot reopen " + path + " for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) fail(Kind::kIo, 0, "fsync of " + path + " failed");
}

// Persist the rename itself (directory entry). Best effort: some
// filesystems reject directory fsync, and the data is already durable.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}
#else
void sync_file(const std::string&) {}
void sync_parent_dir(const std::string&) {}
#endif

// Crash-atomic file write: stream `body` into `<path>.tmp`, flush + fsync,
// then atomically rename over `path`. Any failure before the rename leaves
// the previous `path` untouched; the injected-crash site (`rename_site`,
// fired between durability and rename) additionally leaves the tmp file on
// disk, exactly like a real crash at that instant.
template <typename Body>
void atomic_save(const std::string& path, const char* rename_site,
                 Body&& body) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open())
      fail(Kind::kIo, 0, "cannot open " + tmp + " for writing");
    body(os);
    os.flush();
    if (!os.good()) fail(Kind::kIo, 0, "flush of " + tmp + " failed");
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  sync_file(tmp);
  RPBCM_FAULT_POINT(
      rename_site,
      fail(Kind::kIo, 0,
           std::string("injected crash before rename of ") + tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(Kind::kIo, 0, "rename " + tmp + " -> " + path + " failed");
  }
  sync_parent_dir(path);
}

}  // namespace

const char* serialization_error_kind_name(SerializationError::Kind kind) {
  switch (kind) {
    case Kind::kIo:
      return "io";
    case Kind::kBadMagic:
      return "bad_magic";
    case Kind::kTruncated:
      return "truncated";
    case Kind::kChecksumMismatch:
      return "checksum_mismatch";
    case Kind::kFormat:
      return "format";
    case Kind::kArchMismatch:
      return "arch_mismatch";
  }
  return "unknown";
}

void save_checkpoint(nn::Sequential& model, std::ostream& os) {
  Writer w(os, "core.ckpt.write");
  w.raw(kCheckpointMagic, sizeof kCheckpointMagic);
  const auto params = model.params();
  w.u64(params.size());
  for (auto* p : params) {
    w.str(p->name);
    const auto& shape = p->value.shape();
    w.u32(static_cast<std::uint32_t>(shape.size()));
    for (auto d : shape) w.u64(d);
    w.raw(p->value.data(), p->value.size() * sizeof(float));
  }
  const auto buffers = collect_buffers(model);
  w.u64(buffers.size());
  for (auto* b : buffers) {
    w.u64(b->size());
    w.raw(b->data(), b->size() * sizeof(float));
  }
  const auto masks = collect_masks(model);
  w.u64(masks.size());
  for (const auto& m : masks) {
    w.u64(m.size());
    w.raw(m.data(), m.size());
  }
  w.finish();
}

void load_checkpoint(nn::Sequential& model, std::istream& is) {
  Reader r(is);
  char magic[8];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kCheckpointMagic, 8) != 0)
    fail(Kind::kBadMagic, 0, "not an RP-BCM checkpoint");

  // Stage everything into temporaries: no Param/buffer/mask byte of the
  // live model is touched until the whole record (including its checksum)
  // has been read and validated. Counts and sizes are checked against the
  // live architecture BEFORE the matching allocation, so a corrupt header
  // cannot trigger an implausible allocation either.
  const auto params = model.params();
  {
    const auto at = r.offset();
    const auto param_count = r.u64();
    if (param_count != params.size())
      fail(Kind::kArchMismatch, at,
           "parameter count mismatch: model has " +
               std::to_string(params.size()) + ", file has " +
               std::to_string(param_count));
  }
  std::vector<std::vector<float>> values;
  values.reserve(params.size());
  for (auto* p : params) {
    auto at = r.offset();
    const auto name = r.str();
    if (name != p->name)
      fail(Kind::kArchMismatch, at,
           "parameter name mismatch: expected '" + p->name +
               "', file has '" + name + "'");
    at = r.offset();
    const auto rank = r.u32();
    if (rank != p->value.rank())
      fail(Kind::kArchMismatch, at, "parameter rank mismatch for " + p->name);
    for (std::size_t d = 0; d < rank; ++d) {
      at = r.offset();
      if (r.u64() != p->value.dim(d))
        fail(Kind::kArchMismatch, at,
             "parameter shape mismatch for " + p->name);
    }
    std::vector<float> v(p->value.size());
    r.raw(v.data(), v.size() * sizeof(float));
    values.push_back(std::move(v));
  }

  const auto buffers = collect_buffers(model);
  {
    const auto at = r.offset();
    const auto buffer_count = r.u64();
    if (buffer_count != buffers.size())
      fail(Kind::kArchMismatch, at,
           "buffer count mismatch — different architecture");
  }
  std::vector<std::vector<float>> buffer_values;
  buffer_values.reserve(buffers.size());
  for (auto* b : buffers) {
    const auto at = r.offset();
    if (r.u64() != b->size())
      fail(Kind::kArchMismatch, at, "buffer size mismatch");
    std::vector<float> v(b->size());
    r.raw(v.data(), v.size() * sizeof(float));
    buffer_values.push_back(std::move(v));
  }

  const auto expected_masks = collect_masks(model);
  {
    const auto at = r.offset();
    const auto mask_count = r.u64();
    if (mask_count != expected_masks.size())
      fail(Kind::kArchMismatch, at,
           "skip-mask count mismatch — different architecture");
  }
  std::vector<std::vector<std::uint8_t>> masks;
  masks.reserve(expected_masks.size());
  for (const auto& expected : expected_masks) {
    const auto at = r.offset();
    const auto size = r.u64();
    if (size != expected.size())
      fail(Kind::kArchMismatch, at, "skip-mask size mismatch");
    std::vector<std::uint8_t> m(size);
    r.raw(m.data(), m.size());
    masks.push_back(std::move(m));
  }
  r.verify_checksum();

  // Commit — nothing below can fail for data reasons.
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), values[i].data(),
                values[i].size() * sizeof(float));
    params[i]->mark_updated();  // raw write bypasses the layer: bump version
  }
  for (std::size_t i = 0; i < buffers.size(); ++i)
    std::memcpy(buffers[i]->data(), buffer_values[i].data(),
                buffer_values[i].size() * sizeof(float));
  restore_masks(model, std::move(masks));
}

void save_checkpoint(nn::Sequential& model, const std::string& path) {
  atomic_save(path, "core.ckpt.rename",
              [&model](std::ostream& os) { save_checkpoint(model, os); });
}

void load_checkpoint(nn::Sequential& model, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open())
    fail(Kind::kIo, 0, "cannot open " + path);
  load_checkpoint(model, is);
}

}  // namespace rpbcm::core
