#include "checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"

namespace catsim
{

namespace
{

constexpr std::uint64_t kJournalMagic = 0x43415453494D4A31ULL; // CATSIMJ1
constexpr std::uint64_t kJournalVersion = 1;
/** Sanity bounds so a corrupt length field can't drive allocation. */
constexpr std::uint64_t kMaxKeyLen = 1u << 20;
constexpr std::uint64_t kMaxBlobLen = 1u << 28;

/** Serialized header for @p runKey (magic..runKey plus CRC). */
std::string
makeHeader(const std::string &runKey)
{
    BlobWriter w;
    w.putU64(kJournalMagic);
    w.putU64(kJournalVersion);
    w.putU64(runKey.size());
    w.putBytes(runKey.data(), runKey.size());
    w.putCrc32();
    return w.str();
}

/** Serialized record for (key, blob): lengths, bytes, CRC. */
std::string
makeRecord(const std::string &key, const std::string &blob)
{
    BlobWriter w;
    w.putU64(key.size());
    w.putU64(blob.size());
    w.putBytes(key.data(), key.size());
    w.putBytes(blob.data(), blob.size());
    w.putCrc32();
    return w.str();
}

} // namespace

std::string
checkpointDirFromEnv()
{
    const char *env = std::getenv("CATSIM_CHECKPOINT");
    return env ? env : "";
}

std::string
checkpointFileName(const std::string &runKey)
{
    char name[64];
    std::snprintf(name, sizeof name, "run-%016llx.catj",
                  static_cast<unsigned long long>(fnv1a(runKey)));
    return name;
}

bool
readImage(std::ifstream &in, std::string *image)
{
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0);
    if (!in || size < 0)
        return false;
    image->resize(static_cast<std::size_t>(size));
    in.read(image->data(), size);
    image->resize(static_cast<std::size_t>(in.gcount()));
    return static_cast<bool>(in);
}

CheckpointJournal::CheckpointJournal(const std::string &dir,
                                     const std::string &runKey)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path_ = (std::filesystem::path(dir) / checkpointFileName(runKey))
                .string();

    // Read the whole image up front: records are validated (and the
    // torn tail truncated) against in-memory bytes, never a stream
    // whose fail state conflates EOF with I/O error.
    std::string image;
    {
        std::ifstream is(path_, std::ios::binary);
        if (is)
            readImage(is, &image);
    }

    const std::string header = makeHeader(runKey);
    bool fresh = image.empty();
    if (!fresh
        && (image.size() < header.size()
            || std::memcmp(image.data(), header.data(), header.size())
                   != 0)) {
        CATSIM_WARN("checkpoint journal ", path_,
                    ": header mismatch (stale format or colliding run "
                    "key); starting fresh");
        fresh = true;
    }

    std::size_t validEnd = header.size();
    if (!fresh) {
        BlobReader r(std::string_view(image).substr(header.size()));
        while (!r.atEnd()) {
            const std::size_t recordStart = r.pos();
            if (fault::shouldFail("checkpoint_replay_short"))
                break; // models a read failing mid-replay
            std::uint64_t keyLen = 0, blobLen = 0;
            std::string_view key, blob;
            std::uint32_t storedCrc = 0;
            if (!r.getU64(&keyLen) || !r.getU64(&blobLen)
                || keyLen > kMaxKeyLen || blobLen > kMaxBlobLen
                || !r.getBytes(keyLen, &key) || !r.getBytes(blobLen, &blob)
                || !r.getU32(&storedCrc)) {
                CATSIM_WARN("checkpoint journal ", path_,
                            ": torn record at offset ",
                            header.size() + recordStart,
                            "; truncating tail");
                break;
            }
            const std::uint32_t computed =
                crc32(image.data() + header.size() + recordStart,
                      r.pos() - recordStart - sizeof storedCrc);
            if (computed != storedCrc) {
                CATSIM_WARN("checkpoint journal ", path_,
                            ": CRC mismatch at offset ",
                            header.size() + recordStart,
                            "; truncating tail");
                break;
            }
            index_[std::string(key)] = std::string(blob);
            ++replayed_;
            validEnd = header.size() + r.pos();
        }
    }

    if (fresh) {
        // (Re)write header + truncate everything else.
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        if (!os || !os.write(header.data(),
                             static_cast<std::streamsize>(header.size())))
            CATSIM_WARN("checkpoint journal ", path_,
                        ": cannot write header; checkpointing will "
                        "fail loudly on first append");
        os.flush();
    } else if (validEnd < image.size()) {
        std::filesystem::resize_file(path_, validEnd, ec);
        if (ec)
            CATSIM_WARN("checkpoint journal ", path_,
                        ": cannot truncate torn tail: ", ec.message());
    }
    syncFile(path_);
    syncParentDir(path_);
}

bool
CheckpointJournal::lookup(const std::string &key,
                          std::string *blob) const
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    *blob = it->second;
    return true;
}

void
CheckpointJournal::append(const std::string &key, const std::string &blob)
{
    const std::string record = makeRecord(key, blob);
    std::lock_guard<std::mutex> lock(appendMutex_);
    fault::maybeThrow("checkpoint_append_enospc");
    {
        std::ofstream os(path_, std::ios::binary | std::ios::app);
        if (!os)
            throw std::runtime_error("checkpoint journal " + path_
                                     + ": cannot open for append");
        if (fault::shouldFail("checkpoint_append_torn")) {
            // Model a crash mid-write: half the record reaches the
            // file, then the process "dies".  Replay must drop it.
            os.write(record.data(),
                     static_cast<std::streamsize>(record.size() / 2));
            os.flush();
            throw FaultInjected(
                "fail-point 'checkpoint_append_torn' fired");
        }
        os.write(record.data(),
                 static_cast<std::streamsize>(record.size()));
        os.flush();
        if (!os)
            throw std::runtime_error("checkpoint journal " + path_
                                     + ": short append");
    }
    // A record only counts as checkpointed once it is on the device;
    // otherwise a crash after "skip this cell next time" was decided
    // could lose the cell entirely.
    syncFile(path_);
    index_[key] = blob;
}

void
BlobWriter::putStats(const SchemeStats &s)
{
    for (const auto field : SchemeStats::kFields)
        putU64(s.*field);
}

void
BlobWriter::putCrc32()
{
    putU32(crc32(buf_.data(), buf_.size()));
}

bool
BlobReader::getStats(SchemeStats *s)
{
    for (const auto field : SchemeStats::kFields)
        if (!getU64(&(s->*field)))
            return false;
    return true;
}

} // namespace catsim
