#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "base/check.hpp"
#include "nn/sequential.hpp"

namespace rpbcm::core {

/// Typed failure from the (de)serializers. Derives CheckError so existing
/// `catch (rpbcm::CheckError&)` callers keep working, but carries a machine
/// readable kind and the byte offset at which the stream went bad — the
/// difference between "disk died" and "file is from another architecture"
/// decides whether a serving process retries, falls back to the previous
/// checkpoint, or pages an operator (docs/robustness.md).
class SerializationError : public CheckError {
 public:
  enum class Kind : std::uint8_t {
    kIo,                // stream/file write or read error (EIO-class)
    kBadMagic,          // not an RP-BCM file of the expected family
    kTruncated,         // stream ended before the format said it would
    kChecksumMismatch,  // full record read but FNV-1a disagrees: bit rot
    kFormat,            // implausible lengths/values inside the record
    kArchMismatch,      // well-formed file for a different model
  };

  SerializationError(Kind kind, std::uint64_t byte_offset,
                     const std::string& what)
      : CheckError(what), kind_(kind), byte_offset_(byte_offset) {}

  Kind kind() const { return kind_; }
  /// Offset of the first byte of the field being processed when the error
  /// was detected (0 when the file could not be opened at all).
  std::uint64_t byte_offset() const { return byte_offset_; }

 private:
  Kind kind_;
  std::uint64_t byte_offset_;
};

/// Human-readable name of a SerializationError kind ("io", "bad_magic", ...).
const char* serialization_error_kind_name(SerializationError::Kind kind);

/// Binary model checkpoint: every trainable parameter of the model plus
/// the skip-index masks of all BCM-compressed layers, with an FNV-1a
/// checksum. Format (little-endian):
///   magic "RPBCMCK1" | u64 param_count | params... | u64 buffer_count |
///   buffers... | u64 mask_count | masks... | u64 checksum
/// Each param record: u32 name_len | name | u32 rank | u64 dims[rank] |
/// f32 data[numel]. Each mask record: u64 size | u8 bits[size].
///
/// Failure contracts:
///  - save_checkpoint(path) is crash-atomic: it writes `<path>.tmp`, checks
///    every stream operation, flushes (fsync on POSIX) and atomically
///    renames over `path`. A crash or injected fault at any point leaves
///    either the previous file intact or a stray `.tmp` — never a torn
///    `path`. Fault sites: core.ckpt.write, core.ckpt.rename.
///  - load_checkpoint never partially mutates the model: everything is
///    staged into temporaries and validated (architecture match, sizes,
///    checksum) before a single Param byte is committed. On any
///    SerializationError the model is bitwise unchanged.
void save_checkpoint(nn::Sequential& model, const std::string& path);
void load_checkpoint(nn::Sequential& model, const std::string& path);

void save_checkpoint(nn::Sequential& model, std::ostream& os);
void load_checkpoint(nn::Sequential& model, std::istream& is);

}  // namespace rpbcm::core
