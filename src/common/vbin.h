// VBIN: the persistent binary container format.
//
// Everything the planner persists — queries, view sets, plans,
// certificates, cache snapshots, request-log records — is a VBIN file:
//
//   +------+----+----+-------+---------------+==================+------+
//   | VBIN | u8 | u8 |  u16  | section table | section payloads | u32  |
//   |magic |ver |kind| rsvd  |               |                  | CRC32|
//   +------+----+----+-------+---------------+==================+------+
//
// Design points (docs/FORMAT.md is the byte-exact spec):
//   - varint (unsigned LEB128) integers everywhere except the fixed
//     header and the CRC trailer;
//   - an interned string pool section, so symbol NAMES (never
//     process-local Symbol ids) are stored once and referenced by index;
//   - a section table (tag + length per section) so readers can skip
//     sections they do not understand — forward compatibility without
//     version bumps;
//   - a CRC32 trailer over everything before it, so torn writes and
//     bit rot are detected before any decoding happens;
//   - decoding NEVER aborts: every reader path is bounds-checked and
//     returns vbin::Status.  Hostile inputs (huge varints, lying section
//     tables, truncation) are fuzz targets, not crashes.
//
// This header is the container layer only.  Value codecs for the CQ and
// rewrite types live next to the types (src/cq/vbin_codec.h,
// src/rewrite/vbin_codec.h); the cache snapshot and request log live in
// src/planner/snapshot.h.
#ifndef VBR_COMMON_VBIN_H_
#define VBR_COMMON_VBIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vbr::vbin {

inline constexpr char kMagic[4] = {'V', 'B', 'I', 'N'};
// Bumped only when the CONTAINER layout changes (header/sections/CRC).
// Body payloads carry their own version varint where they need one.
inline constexpr uint8_t kContainerVersion = 1;

// What the body section holds.  A decoder checks the kind before touching
// the body, so feeding a certificate file to the query decoder is a clean
// status, not garbage.
enum class FileKind : uint8_t {
  kQuery = 1,
  kProgram = 2,        // ordered list of rules (view sets, workloads)
  kPlan = 3,           // a rewriting + its filter atoms
  kCertificate = 4,    // EquivalenceCertificate
  kCacheSnapshot = 5,  // ViewPlanner plan-cache snapshot
  kRequestLog = 6,     // one request-log record (query + options)
};

// Section tags.  Unknown tags are skipped on read.
inline constexpr uint64_t kSectionStringPool = 1;
inline constexpr uint64_t kSectionBody = 2;

// Decode outcome.  ok() == empty error.  Every failure message names the
// offending construct ("crc mismatch", "varint overflow", ...).
struct Status {
  std::string error;

  bool ok() const { return error.empty(); }
  static Status Ok() { return Status{}; }
  static Status Error(std::string message) { return Status{std::move(message)}; }
};

// CRC32 (IEEE 802.3, polynomial 0xEDB88320, bit-reflected), the zlib
// convention.  `seed` chains incremental updates.
uint32_t Crc32(std::string_view bytes, uint32_t seed = 0);

// ---------------------------------------------------------------------------
// Primitive encoding

// Appends unsigned LEB128.
void AppendVarint(std::string& out, uint64_t value);
// Appends the 8-byte little-endian bit pattern (exact round trip, NaN and
// all — doubles are never formatted as text).
void AppendF64(std::string& out, double value);
// Fixed-width little-endian integers.
void AppendU8(std::string& out, uint8_t value);
void AppendU16(std::string& out, uint16_t value);
void AppendU32(std::string& out, uint32_t value);
void AppendU64(std::string& out, uint64_t value);
// varint length + raw bytes.
void AppendBytes(std::string& out, std::string_view bytes);

// Bounds-checked cursor over a byte range.  Every Read* returns false on
// truncation/overflow and latches an error message; once failed, all
// subsequent reads fail (so call sites may chain unchecked and test once).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadVarint(uint64_t* value);
  bool ReadF64(double* value);
  bool ReadU8(uint8_t* value) { return ReadFixed(value, "u8"); }
  bool ReadU16(uint16_t* value) { return ReadFixed(value, "u16"); }
  bool ReadU32(uint32_t* value) { return ReadFixed(value, "u32"); }
  bool ReadU64(uint64_t* value) { return ReadFixed(value, "u64"); }
  // Varint length + that many bytes. Points into the underlying buffer (no
  // copy).
  bool ReadBytes(std::string_view* bytes);
  // Exactly `length` bytes, pointing into the underlying buffer.
  bool ReadRaw(uint64_t length, std::string_view* bytes);
  bool ReadBool(bool* value);  // u8, must be 0 or 1

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Remaining unread bytes.
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  // Latches a decode error from a higher layer (value codecs).
  void Fail(std::string message);

  Status ToStatus(std::string_view context) const;

 private:
  // Reads a `width`-byte little-endian integer; `what` names it in the
  // truncation error.
  bool ReadLittleEndian(size_t width, const char* what, uint64_t* value);
  template <typename T>
  bool ReadFixed(T* value, const char* what) {
    uint64_t v = 0;
    if (!ReadLittleEndian(sizeof(T), what, &v)) return false;
    *value = static_cast<T>(v);
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// File writer

// Builds one VBIN file: intern strings, append body primitives, Finish().
//
//   FileWriter w(FileKind::kQuery);
//   w.AppendVarint(w.Intern(name));
//   ...
//   std::string file = std::move(w).Finish();
//
// Interning is order-sensitive on purpose: the pool records first-use
// order, so encoding the same value always yields the same bytes — the
// round-trip identity the differential harness asserts.
class FileWriter {
 public:
  explicit FileWriter(FileKind kind) : kind_(kind) {}

  // Returns the pool index for `s`, interning on first use.
  uint64_t Intern(std::string_view s);

  void AppendVarint(uint64_t value) { vbin::AppendVarint(body_, value); }
  void AppendF64(double value) { vbin::AppendF64(body_, value); }
  void AppendU8(uint8_t value) { vbin::AppendU8(body_, value); }
  void AppendBytes(std::string_view bytes) { vbin::AppendBytes(body_, bytes); }
  void AppendBool(bool value) { vbin::AppendU8(body_, value ? 1 : 0); }

  // Assembles header + string pool + body + CRC trailer.
  std::string Finish() &&;

 private:
  FileKind kind_;
  std::vector<std::string> pool_;
  // name -> pool index; linear rebuild is fine at our sizes, but a map
  // keeps snapshot encoding O(n).
  std::vector<std::pair<std::string, uint64_t>> index_;
  std::string body_;
};

// ---------------------------------------------------------------------------
// File reader

// A validated view into one VBIN file.  `strings` and `body` point into
// the caller's buffer, which must outlive the FileView.
struct FileView {
  uint8_t container_version = 0;
  FileKind kind = FileKind::kQuery;
  std::vector<std::string_view> strings;
  std::string_view body;

  // Pool lookup used by the value codecs; fails the reader on a bad index
  // instead of throwing.
  bool String(uint64_t index, std::string_view* out, Reader* reader) const;
};

// Validates magic, container version, CRC, and the section table, and
// parses the string pool.  `bytes` must outlive `*out`.  Accepts files
// whose container version is <= ours; newer files are a clean error.
// `expected_kind` of 0 accepts any kind.
Status OpenFile(std::string_view bytes, FileView* out,
                FileKind expected_kind);
Status OpenFileAnyKind(std::string_view bytes, FileView* out);

// ---------------------------------------------------------------------------
// Small file I/O helpers (used by snapshots and logs)

Status ReadWholeFile(const std::string& path, std::string* out);
// Writes via a temp file in the same directory + rename, so readers never
// observe a torn file.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace vbr::vbin

#endif  // VBR_COMMON_VBIN_H_
