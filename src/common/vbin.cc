#include "common/vbin.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <utility>

namespace vbr::vbin {
namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view bytes, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char ch : bytes) {
    c = kTable[(c ^ ch) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

namespace {

void AppendLittleEndian(std::string& out, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

}  // namespace

void AppendF64(std::string& out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendLittleEndian(out, bits, 8);
}

void AppendU8(std::string& out, uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void AppendU16(std::string& out, uint16_t value) {
  AppendLittleEndian(out, value, 2);
}

void AppendU32(std::string& out, uint32_t value) {
  AppendLittleEndian(out, value, 4);
}

void AppendU64(std::string& out, uint64_t value) {
  AppendLittleEndian(out, value, 8);
}

void AppendBytes(std::string& out, std::string_view bytes) {
  AppendVarint(out, bytes.size());
  out.append(bytes);
}

// ---------------------------------------------------------------------------
// Reader

bool Reader::ReadVarint(uint64_t* value) {
  if (!error_.empty()) return false;
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos_ >= bytes_.size()) {
      Fail("varint truncated");
      return false;
    }
    uint8_t byte = static_cast<uint8_t>(bytes_[pos_++]);
    // The 10th byte may only contribute the final bit of a 64-bit value.
    if (shift == 63 && (byte & 0x7E) != 0) {
      Fail("varint overflow");
      return false;
    }
    if (shift > 63) {
      Fail("varint overflow");
      return false;
    }
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  Fail("varint too long");
  return false;
}

bool Reader::ReadLittleEndian(size_t width, const char* what,
                              uint64_t* value) {
  if (!error_.empty()) return false;
  if (bytes_.size() - pos_ < width) {
    Fail(std::string(what) + " truncated");
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += width;
  *value = v;
  return true;
}

bool Reader::ReadF64(double* value) {
  uint64_t bits = 0;
  if (!ReadLittleEndian(8, "f64", &bits)) return false;
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

bool Reader::ReadBytes(std::string_view* bytes) {
  uint64_t length = 0;
  return ReadVarint(&length) && ReadRaw(length, bytes);
}

bool Reader::ReadRaw(uint64_t length, std::string_view* bytes) {
  if (!error_.empty()) return false;
  if (length > bytes_.size() - pos_) {
    Fail("byte string truncated");
    return false;
  }
  *bytes = bytes_.substr(pos_, length);
  pos_ += length;
  return true;
}

bool Reader::ReadBool(bool* value) {
  uint8_t byte = 0;
  if (!ReadU8(&byte)) return false;
  if (byte > 1) {
    Fail("bool out of range");
    return false;
  }
  *value = byte != 0;
  return true;
}

void Reader::Fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

Status Reader::ToStatus(std::string_view context) const {
  if (ok()) return Status::Ok();
  return Status::Error(std::string(context) + ": " + error_);
}

// ---------------------------------------------------------------------------
// FileWriter

uint64_t FileWriter::Intern(std::string_view s) {
  for (const auto& [name, id] : index_) {
    if (name == s) return id;
  }
  uint64_t id = pool_.size();
  pool_.emplace_back(s);
  index_.emplace_back(std::string(s), id);
  return id;
}

std::string FileWriter::Finish() && {
  std::string pool_bytes;
  vbin::AppendVarint(pool_bytes, pool_.size());
  for (const std::string& s : pool_) {
    vbin::AppendBytes(pool_bytes, s);
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  vbin::AppendU8(out, kContainerVersion);
  vbin::AppendU8(out, static_cast<uint8_t>(kind_));
  // Reserved flags, must be zero in version 1.
  out.push_back(0);
  out.push_back(0);

  vbin::AppendVarint(out, 2);  // section count
  vbin::AppendVarint(out, kSectionStringPool);
  vbin::AppendVarint(out, pool_bytes.size());
  vbin::AppendVarint(out, kSectionBody);
  vbin::AppendVarint(out, body_.size());
  out.append(pool_bytes);
  out.append(body_);

  vbin::AppendU32(out, Crc32(out));
  return out;
}

// ---------------------------------------------------------------------------
// FileView / OpenFile

bool FileView::String(uint64_t index, std::string_view* out,
                      Reader* reader) const {
  if (index >= strings.size()) {
    reader->Fail("string pool index out of range");
    return false;
  }
  *out = strings[index];
  return true;
}

namespace {

Status ParseStringPool(std::string_view section, FileView* out) {
  Reader reader(section);
  uint64_t count = 0;
  if (!reader.ReadVarint(&count)) {
    return reader.ToStatus("string pool");
  }
  // Each pooled string costs at least one length byte, so a count beyond
  // the remaining bytes is a lie — reject it before reserving anything.
  if (count > reader.remaining()) {
    return Status::Error("string pool: count exceeds section size");
  }
  out->strings.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view s;
    if (!reader.ReadBytes(&s)) {
      return reader.ToStatus("string pool");
    }
    out->strings.push_back(s);
  }
  if (!reader.AtEnd()) {
    return Status::Error("string pool: trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Status OpenFile(std::string_view bytes, FileView* out,
                FileKind expected_kind) {
  *out = FileView{};
  if (bytes.size() < sizeof(kMagic) + 4 + 4) {
    return Status::Error("file too small");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("bad magic");
  }

  // CRC covers everything before the 4-byte trailer.
  std::string_view covered = bytes.substr(0, bytes.size() - 4);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<uint8_t>(bytes[bytes.size() - 4 + i]))
              << (8 * i);
  }
  if (Crc32(covered) != stored) {
    return Status::Error("crc mismatch");
  }

  Reader reader(covered.substr(sizeof(kMagic)));
  uint8_t version = 0, kind_byte = 0, reserved0 = 0, reserved1 = 0;
  reader.ReadU8(&version);
  reader.ReadU8(&kind_byte);
  reader.ReadU8(&reserved0);
  reader.ReadU8(&reserved1);
  if (!reader.ok()) return reader.ToStatus("header");
  if (version == 0 || version > kContainerVersion) {
    return Status::Error("unsupported container version " +
                         std::to_string(version));
  }
  if (reserved0 != 0 || reserved1 != 0) {
    return Status::Error("reserved header bytes nonzero");
  }
  out->container_version = version;
  out->kind = static_cast<FileKind>(kind_byte);
  if (expected_kind != static_cast<FileKind>(0) &&
      out->kind != expected_kind) {
    return Status::Error("unexpected file kind " + std::to_string(kind_byte));
  }

  uint64_t section_count = 0;
  if (!reader.ReadVarint(&section_count)) {
    return reader.ToStatus("section table");
  }
  // Each table entry needs >= 2 bytes; a huge count cannot be honest.
  if (section_count > reader.remaining() / 2 + 1) {
    return Status::Error("section table: count exceeds file size");
  }
  struct SectionEntry {
    uint64_t tag;
    uint64_t length;
  };
  std::vector<SectionEntry> sections;
  sections.reserve(section_count);
  uint64_t total_payload = 0;
  for (uint64_t i = 0; i < section_count; ++i) {
    SectionEntry entry{};
    if (!reader.ReadVarint(&entry.tag) || !reader.ReadVarint(&entry.length)) {
      return reader.ToStatus("section table");
    }
    if (entry.length > reader.remaining() - total_payload ||
        total_payload + entry.length < total_payload) {
      return Status::Error("section table: lengths exceed file size");
    }
    total_payload += entry.length;
    sections.push_back(entry);
  }
  if (total_payload != reader.remaining()) {
    return Status::Error("section table: lengths do not cover payload");
  }

  // Section payloads follow the table in table order; slice them out of
  // `covered` directly (their lengths came from the table, not inline).
  bool saw_pool = false, saw_body = false;
  size_t consumed = covered.size() - sizeof(kMagic) - reader.remaining();
  size_t cursor = sizeof(kMagic) + consumed;
  for (const SectionEntry& entry : sections) {
    std::string_view payload = covered.substr(cursor, entry.length);
    cursor += entry.length;
    if (entry.tag == kSectionStringPool) {
      if (saw_pool) return Status::Error("duplicate string pool section");
      saw_pool = true;
      Status status = ParseStringPool(payload, out);
      if (!status.ok()) return status;
    } else if (entry.tag == kSectionBody) {
      if (saw_body) return Status::Error("duplicate body section");
      saw_body = true;
      out->body = payload;
    }
    // Unknown tags: skipped (forward compatibility).
  }
  if (!saw_body) {
    return Status::Error("missing body section");
  }
  return Status::Ok();
}

Status OpenFileAnyKind(std::string_view bytes, FileView* out) {
  return OpenFile(bytes, out, static_cast<FileKind>(0));
}

// ---------------------------------------------------------------------------
// File I/O

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Error("cannot open " + path);
  }
  out->clear();
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Error("read error on " + path);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error("cannot create " + tmp);
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Error("write error on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace vbr::vbin
