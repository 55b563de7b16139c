#include "checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"

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

bool
keepGoingFromEnv()
{
    const char *env = std::getenv("CATSIM_SWEEP_KEEP_GOING");
    return env && std::string(env) == "1";
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

CellError
currentCellError(std::size_t index, const std::string &label, int attempts)
{
    CellError err{index, label, "unknown error", attempts};
    try {
        throw;
    } catch (const std::exception &e) {
        err.message = e.what();
    } catch (...) {
    }
    return err;
}

JournaledRunner::JournaledRunner(std::size_t jobs)
    : jobs_(jobs ? jobs : 1), dir_(checkpointDirFromEnv()),
      keepGoing_(keepGoingFromEnv())
{
}

void
JournaledRunner::run(
    const JournaledGrid &grid,
    const std::function<bool(std::size_t, const std::string &)> &restore,
    const std::function<void(std::size_t)> &eval,
    const std::function<std::string(std::size_t)> &encode)
{
    const std::size_t n = grid.keys.size();
    errors_.clear();
    resumed_ = 0;
    const std::unique_ptr<CheckpointJournal> journal =
        dir_.empty() ? nullptr
                     : std::make_unique<CheckpointJournal>(dir_, grid.runKey);

    // Replay: journaled cells (validated by key + CRC at open) are
    // decoded in place and never re-run.
    std::vector<std::size_t> pending;
    pending.reserve(n);
    std::string blob;
    for (std::size_t i = 0; i < n; ++i) {
        if (journal && journal->lookup(grid.keys[i], &blob)
            && restore(i, blob))
            ++resumed_;
        else
            pending.push_back(i);
    }
    if (resumed_ > 0)
        CATSIM_INFORM("checkpoint: resumed ", resumed_, "/", n, " ",
                      grid.what, " from ", journal->path());

    // One cell per group first: a worker handed a group's second cell
    // would only block on the set-up its first cell is still running.
    if (!grid.groups.empty()) {
        std::vector<char> leads(n, 0);
        std::set<std::string_view> seen;
        for (const std::size_t i : pending)
            leads[i] = seen.insert(grid.groups[i]).second;
        std::stable_partition(pending.begin(), pending.end(),
                              [&leads](std::size_t i) { return leads[i]; });
    }

    // Losing a record only costs a re-run on resume, so keep-going
    // carries on; fail-fast dies loudly, because a broken journal would
    // make every later resume silently partial.
    const auto journalCell = [&](std::size_t i) {
        const std::string encoded = encode(i);
        try {
            journal->append(grid.keys[i], encoded);
        } catch (const std::exception &e) {
            if (!keepGoing_)
                throw;
            CATSIM_WARN("checkpoint append failed for ", grid.labels[i],
                        ": ", e.what());
        }
    };

    std::vector<CellError> errors;
    std::mutex errMutex;
    const int maxAttempts = keepGoing_ ? 2 : 1;
    const auto runCell = [&](std::size_t pi) {
        const std::size_t i = pending[pi];
        for (int attempt = 1;; ++attempt) {
            try {
                fault::maybeThrow(grid.failSite);
                eval(i);
                if (journal)
                    journalCell(i);
                return;
            } catch (...) {
                if (attempt < maxAttempts)
                    continue; // transient? one retry
                {
                    std::lock_guard<std::mutex> lock(errMutex);
                    errors.push_back(
                        currentCellError(i, grid.labels[i], attempt));
                }
                if (!keepGoing_)
                    throw; // poisons the grid: no new cells start
                return;    // failed cells are never journaled
            }
        }
    };
    try {
        parallelFor(pending.size(), runCell, jobs_);
    } catch (...) {
        // parallelFor names the failure by its position among the
        // pending cells; the report below names it by its grid index.
        if (keepGoing_ || errors.empty())
            throw;
    }

    std::sort(errors.begin(), errors.end(),
              [](const CellError &a, const CellError &b) {
                  return a.index < b.index;
              });
    errors_ = std::move(errors);
    if (errors_.empty())
        return;
    if (!keepGoing_) {
        const CellError &e = errors_.front();
        throw std::runtime_error("cell " + std::to_string(e.index) + " ("
                                 + e.label + "): " + e.message);
    }
    CATSIM_WARN("keep-going: ", errors_.size(), "/", grid.keys.size(), " ",
                grid.what, " failed permanently and were not checkpointed");
    for (const auto &e : errors_)
        CATSIM_WARN("  cell ", e.index, " (", e.label, "), ", e.attempts,
                    " attempts: ", e.message);
}

} // namespace catsim
