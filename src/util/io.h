#ifndef S3VCD_UTIL_IO_H_
#define S3VCD_UTIL_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace s3vcd {

/// CRC-32 (IEEE polynomial, reflected) of `data`; `seed` allows chaining.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Buffered sequential writer for the little-endian binary formats used by
/// the fingerprint database file. Keeps a running CRC of everything written
/// so the file can embed an integrity checksum.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Opens (truncates) `path` for writing.
  Status Open(const std::string& path);

  Status WriteBytes(const void* data, size_t size);
  Status WriteU32(uint32_t v);
  Status WriteU64(uint64_t v);
  Status WriteDouble(double v);
  /// Length-prefixed (u32) byte string.
  Status WriteString(const std::string& s);

  /// CRC-32 of all bytes written so far.
  uint32_t crc() const { return crc_; }
  uint64_t bytes_written() const { return bytes_written_; }

  /// Flushes userspace buffers and fsyncs the file to stable storage.
  /// Call before Close when the file must survive a crash (note that
  /// durability of the *name* additionally needs SyncDir on the parent).
  Status Sync();

  /// Flushes and closes; returns any deferred I/O error.
  Status Close();

 private:
  std::FILE* file_ = nullptr;
  uint32_t crc_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Sequential/positional reader mirroring BinaryWriter.
class BinaryReader {
 public:
  BinaryReader() = default;
  ~BinaryReader();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Status Open(const std::string& path);

  Status ReadBytes(void* data, size_t size);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  Status ReadString(std::string* s);

  /// Absolute seek from the start of the file.
  Status Seek(uint64_t offset);
  /// Total file size in bytes.
  Result<uint64_t> Size();

  /// CRC-32 of all bytes read so far through the Read* calls (reset by
  /// Seek so ranged verification is possible).
  uint32_t crc() const { return crc_; }

  Status Close();

 private:
  std::FILE* file_ = nullptr;
  uint32_t crc_ = 0;
};

/// Reads a whole file into a byte vector.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// fsyncs a directory so renames/creates/unlinks inside it are durable
/// (the second half of the write-fsync-rename-fsyncdir pattern).
Status SyncDir(const std::string& dir_path);

/// The directory component of `path` ("." when there is no slash).
std::string DirName(const std::string& path);

}  // namespace s3vcd

#endif  // S3VCD_UTIL_IO_H_
