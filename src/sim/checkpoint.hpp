/**
 * @file
 * Crash-safe run journal and its binary codec.
 *
 * Every SweepRunner cell and Monte-Carlo trial batch is a pure
 * deterministic function of its spec, so a long run can be made
 * crash-safe by journaling each completed unit of work: one record
 * per cell, appended (and fsync'd) the moment the cell finishes.  On
 * restart the journal is replayed, every record whose key and CRC32
 * validate is served from disk, and only the missing cells re-run -
 * a killed-and-resumed run therefore produces byte-identical output
 * to an uninterrupted one.
 *
 * Enabled by CATSIM_CHECKPOINT=dir (or programmatically).  One
 * journal file per distinct run, named from a hash of the run key (the
 * run kind, scale, and every cell spec), so a changed grid opens a
 * fresh journal instead of mixing stale cells in.
 *
 * On-disk format (little-endian, append-only):
 *
 *   header:  u64 magic "CATSIMJ1" | u64 version | u64 runKeyLen |
 *            runKey bytes | u32 crc32(header bytes so far)
 *   record:  u64 keyLen | u64 blobLen | key bytes | blob bytes |
 *            u32 crc32(record bytes so far)
 *
 * Replay stops at the first short read or CRC mismatch, truncates the
 * file back to the last valid record (the torn tail a SIGKILL mid
 * append leaves behind), and appends from there.  A corrupt or torn
 * record is therefore never served - it is re-run instead.
 */

#ifndef CATSIM_SIM_CHECKPOINT_HPP
#define CATSIM_SIM_CHECKPOINT_HPP

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "core/mitigation.hpp"

namespace catsim
{

/** Checkpoint directory from CATSIM_CHECKPOINT ("" = disabled). */
std::string checkpointDirFromEnv();

/** Journal file name (not path) for a run key: hash-suffixed. */
std::string checkpointFileName(const std::string &runKey);

/**
 * Read the whole file behind @p in into @p image with one allocation.
 * False on a read error; @p image then holds the bytes read before it.
 */
bool readImage(std::ifstream &in, std::string *image);

/**
 * One append-only journal of completed work records.
 *
 * Thread safety: lookup() reads the replayed index built at open time
 * and may race with nothing; append() serializes internally, so
 * concurrent sweep workers can journal cells as they finish.
 */
class CheckpointJournal
{
  public:
    /**
     * Open (creating if needed) dir/checkpointFileName(runKey) and
     * replay its valid records.  A header that fails validation or
     * names a different run key (hash collision, format bump) starts
     * the journal fresh.
     */
    CheckpointJournal(const std::string &dir, const std::string &runKey);

    CheckpointJournal(const CheckpointJournal &) = delete;
    CheckpointJournal &operator=(const CheckpointJournal &) = delete;

    /** True when @p key was journaled; copies its blob to @p blob. */
    bool lookup(const std::string &key, std::string *blob) const;

    /**
     * Append one completed record and fsync it.  Throws
     * std::runtime_error on I/O failure (a cell result that could not
     * be made durable must not be treated as checkpointed).
     */
    void append(const std::string &key, const std::string &blob);

    /** Records replayed from disk at open time. */
    std::size_t replayedRecords() const { return replayed_; }

    /** Full path of the journal file. */
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::map<std::string, std::string> index_;
    std::size_t replayed_ = 0;
    std::mutex appendMutex_;
};

static_assert(sizeof(double) == sizeof(std::uint64_t),
              "blobs store doubles as 8 bytes");

/**
 * Little-endian binary blob builder/reader: journal framing and
 * payloads, and the baseline cache files (sim/baseline_io).  Doubles
 * are stored bit-exactly, so a value decoded from disk is the value
 * the original run computed - byte-identical resumes.
 */
class BlobWriter
{
  public:
    void putU32(std::uint32_t v) { putBytes(&v, sizeof v); }
    void putU64(std::uint64_t v) { putBytes(&v, sizeof v); }
    void putDouble(double v) { putBytes(&v, sizeof v); }
    void
    putBytes(const void *data, std::size_t len)
    {
        buf_.append(static_cast<const char *>(data), len);
    }
    /** Every SchemeStats field as a u64, in SchemeStats::kFields order. */
    void putStats(const SchemeStats &s);
    /** Append the CRC32 of every byte written so far. */
    void putCrc32();
    const std::string &str() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Reads a BlobWriter image in place.  A failed get consumes nothing
 * and never reads past the end.  The image must outlive the reader.
 */
class BlobReader
{
  public:
    explicit BlobReader(std::string_view buf) : buf_(buf) {}
    bool getU32(std::uint32_t *v) { return getRaw(v); }
    bool getU64(std::uint64_t *v) { return getRaw(v); }
    bool getDouble(double *v) { return getRaw(v); }
    /** The next @p len bytes, viewed in place. */
    bool
    getBytes(std::uint64_t len, std::string_view *bytes)
    {
        if (buf_.size() - pos_ < len)
            return false;
        *bytes = buf_.substr(pos_, len);
        pos_ += len;
        return true;
    }
    bool getStats(SchemeStats *s);
    /** Bytes consumed so far. */
    std::size_t pos() const { return pos_; }
    /** True when every byte was consumed (length sanity check). */
    bool atEnd() const { return pos_ == buf_.size(); }

  private:
    template <typename T>
    bool
    getRaw(T *v)
    {
        std::string_view bytes;
        if (!getBytes(sizeof *v, &bytes))
            return false;
        std::memcpy(v, bytes.data(), sizeof *v);
        return true;
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
};

/**
 * One sweep cell that failed permanently: which cell, what it was, and
 * what its final attempt threw.  Failed cells are NOT journaled, so a
 * checkpointed resume re-runs exactly them.
 */
struct CellError
{
    std::size_t index = 0;  //!< position in the sweep grid
    std::string label;      //!< cell label for the error report
    std::string message;    //!< what() of the last attempt
    int attempts = 0;       //!< evaluation attempts made (max 2)
};

} // namespace catsim

#endif // CATSIM_SIM_CHECKPOINT_HPP
