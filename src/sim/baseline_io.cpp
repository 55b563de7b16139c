#include "baseline_io.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "sim/checkpoint.hpp"

namespace catsim
{

namespace
{

/** Bump on any layout change; stale files are silently recomputed. */
constexpr std::uint64_t kMagic = 0x43415453494D4231ULL; // "CATSIMB1"

} // namespace

std::string
baselineCacheFileName(const std::string &key, double scale)
{
    std::string safe;
    safe.reserve(key.size());
    for (char c : key) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '-' || c == '.';
        safe.push_back(ok ? c : '_');
    }
    std::uint64_t scaleBits;
    static_assert(sizeof scaleBits == sizeof scale, "double is 64-bit");
    std::memcpy(&scaleBits, &scale, sizeof scaleBits);
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, "-%016llx-%016llx.catb",
                  static_cast<unsigned long long>(fnv1a(key)),
                  static_cast<unsigned long long>(scaleBits));
    return safe + suffix;
}

bool
saveBaseline(const std::string &path, const std::string &key,
             double scale, const TimingResult &result)
{
    std::error_code ec;
    const std::filesystem::path target(path);
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path(), ec);

    // Serialize into memory first so the CRC32 trailer covers the
    // exact bytes that hit the disk.
    BlobWriter w;
    w.putU64(kMagic);
    w.putU64(kBaselineModelVersion);
    w.putU64(key.size());
    w.putBytes(key.data(), key.size());
    w.putDouble(scale);

    const ControllerStats &c = result.controller;
    w.putU64(result.execCycles);
    w.putDouble(result.execSeconds);
    w.putU64(result.epochs);
    w.putU64(c.reads);
    w.putU64(c.writes);
    w.putU64(c.writeDrains);
    w.putU64(c.victimRefreshEvents);
    w.putU64(c.victimRowsRefreshed);
    w.putU64(c.lastCompletion);
    w.putStats(result.scheme);
    w.putU64(result.totalActivations);
    w.putU64(result.victimRowsRefreshed);

    w.putU64(result.bankStreams.size());
    for (const auto &stream : result.bankStreams) {
        w.putU64(stream.size());
        w.putBytes(stream.data(), stream.size() * sizeof(RowAddr));
    }
    w.putCrc32();
    const std::string &blob = w.str();

    if (fault::shouldFail("baseline_write_enospc")) {
        CATSIM_WARN("baseline cache: cannot write ", path,
                    " (injected ENOSPC)");
        return false;
    }
    // Injected torn write: half the blob reaches the final path, as a
    // crash between rename and device writeback would leave it.  The
    // CRC trailer makes the next load miss and recompute.
    const std::size_t writeLen = fault::shouldFail("baseline_write_torn")
        ? blob.size() / 2
        : blob.size();

    // Unique temp name per writer (thread id alone can collide across
    // processes sharing a cache dir); renamed into place atomically.
    std::ostringstream uniq;
    uniq << std::this_thread::get_id() << '.' << std::hex
         << std::random_device{}();
    const std::string tmp = path + ".tmp." + uniq.str();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            CATSIM_WARN("baseline cache: cannot write ", tmp);
            return false;
        }
        os.write(blob.data(), static_cast<std::streamsize>(writeLen));
        os.flush();
        if (!os) {
            CATSIM_WARN("baseline cache: short write to ", tmp);
            os.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    // Durability: data to the device before the rename publishes it,
    // then the rename itself via the directory.  Best effort - a
    // filesystem that refuses fsync degrades to page-cache safety.
    syncFile(tmp);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        CATSIM_WARN("baseline cache: rename to ", path, " failed: ",
                    ec.message());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    syncParentDir(path);
    return true;
}

bool
loadBaseline(const std::string &path, const std::string &key,
             double scale, TimingResult *out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    if (fault::shouldFail("baseline_read"))
        return false; // models an I/O error / short read mid-load

    // Read the whole image so the CRC32 trailer can be verified before
    // any field is trusted; the image size also bounds every length
    // field below, so a corrupt file can never trigger a huge
    // allocation.
    std::string image;
    if (!readImage(file, &image) || image.size() < sizeof(std::uint32_t))
        return false;
    std::uint32_t storedCrc = 0;
    std::memcpy(&storedCrc,
                image.data() + image.size() - sizeof storedCrc,
                sizeof storedCrc);
    const std::size_t payloadSize = image.size() - sizeof storedCrc;
    if (crc32(image.data(), payloadSize) != storedCrc)
        return false; // torn, truncated, or bit-flipped: recompute

    BlobReader r(std::string_view(image.data(), payloadSize));
    std::uint64_t magic = 0, version = 0, keyLen = 0;
    std::string_view storedKey;
    double storedScale = 0.0;
    if (!r.getU64(&magic) || magic != kMagic || !r.getU64(&version)
        || version != kBaselineModelVersion || !r.getU64(&keyLen)
        || keyLen > 4096 || !r.getBytes(keyLen, &storedKey)
        || storedKey != key || !r.getDouble(&storedScale)
        || storedScale != scale)
        return false;

    TimingResult t;
    ControllerStats &c = t.controller;
    const bool ok = r.getU64(&t.execCycles) && r.getDouble(&t.execSeconds)
                    && r.getU64(&t.epochs) && r.getU64(&c.reads)
                    && r.getU64(&c.writes) && r.getU64(&c.writeDrains)
                    && r.getU64(&c.victimRefreshEvents)
                    && r.getU64(&c.victimRowsRefreshed)
                    && r.getU64(&c.lastCompletion) && r.getStats(&t.scheme)
                    && r.getU64(&t.totalActivations)
                    && r.getU64(&t.victimRowsRefreshed);
    if (!ok)
        return false;

    std::uint64_t banks = 0;
    if (!r.getU64(&banks) || banks > 65536)
        return false;
    t.bankStreams.resize(banks);
    for (auto &stream : t.bankStreams) {
        std::uint64_t len = 0;
        std::string_view rows;
        if (!r.getU64(&len) || len > payloadSize / sizeof(RowAddr)
            || !r.getBytes(len * sizeof(RowAddr), &rows))
            return false;
        stream.resize(len);
        if (len != 0)
            std::memcpy(stream.data(), rows.data(), rows.size());
    }
    // Reject trailing garbage (e.g. a truncated-then-appended file).
    if (!r.atEnd())
        return false;

    *out = std::move(t);
    return true;
}

} // namespace catsim
