/**
 * @file
 * Primitive binary (de)serialization over std::iostreams.
 *
 * BinaryWriter/BinaryReader are the shared encoding layer of every
 * on-disk artifact (task traces in trace/trace_io, cached simulation
 * results in harness/result_cache): host-endian PODs and 64-bit
 * length-prefixed strings. Files are not portable across byte
 * orders — traces and cache directories are shared between
 * same-endianness hosts only (everything this project targets is
 * little-endian).
 *
 * Corruption handling: readers throw IoError — a *recoverable*
 * subclass of SimError — on truncation or implausible lengths, never
 * panic()/fatal(). A batch that encounters a damaged trace or cache
 * file can therefore catch the error, treat the file as absent and
 * keep running; nothing short of a simulator bug aborts a campaign
 * because one file on disk went bad.
 */

#ifndef TP_COMMON_BINARY_IO_HH
#define TP_COMMON_BINARY_IO_HH

#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "common/logging.hh"

namespace tp {

/**
 * A damaged, truncated or otherwise unreadable binary file.
 *
 * Derives from SimError so existing catch sites keep working, but is
 * distinct from configuration errors: callers that can fall back
 * (e.g. the result cache treating a torn entry as a miss) catch this
 * type specifically.
 */
class IoError : public SimError
{
  public:
    explicit IoError(const std::string &what_arg)
        : SimError(what_arg)
    {}
};

/** Throw IoError with a printf-formatted message. */
[[noreturn]] void throwIoError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Binary encoder writing PODs, strings and vectors to a stream. */
class BinaryWriter
{
  public:
    explicit BinaryWriter(std::ostream &out) : out_(out) {}

    template <typename T>
    void
    pod(const T &v)
    {
        out_.write(reinterpret_cast<const char *>(&v), sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod<std::uint64_t>(s.size());
        out_.write(s.data(), static_cast<std::streamsize>(s.size()));
    }

    /** @return whether every write so far succeeded. */
    bool good() const { return out_.good(); }

  private:
    std::ostream &out_;
};

/**
 * Binary decoder; the exact inverse of BinaryWriter.
 *
 * Every read validates stream state and throws IoError on failure.
 * String lengths are bounded (1 MiB) so a corrupt length field
 * fails immediately instead of attempting an absurd allocation;
 * callers decoding their own counted sequences must bound the
 * counts themselves (e.g. against remainingBytes()).
 */
class BinaryReader
{
  public:
    /** @param name label used in error messages (usually the path) */
    BinaryReader(std::istream &in, std::string name)
        : in_(in), name_(std::move(name))
    {}

    template <typename T>
    T
    pod()
    {
        T v{};
        in_.read(reinterpret_cast<char *>(&v), sizeof(T));
        if (!in_)
            throwIoError("'%s': file truncated", name_.c_str());
        return v;
    }

    std::string
    str()
    {
        const auto n = pod<std::uint64_t>();
        if (n > (1ULL << 20))
            throwIoError("'%s': corrupt string length", name_.c_str());
        std::string s(n, '\0');
        in_.read(s.data(), static_cast<std::streamsize>(n));
        if (!in_)
            throwIoError("'%s': file truncated", name_.c_str());
        return s;
    }

    /**
     * @return bytes left between the current position and the end
     *         of the stream, or UINT64_MAX when the stream is not
     *         seekable. Used to sanity-bound untrusted counts
     *         before allocating for them.
     */
    std::uint64_t
    remainingBytes()
    {
        const std::istream::pos_type at = in_.tellg();
        if (at == std::istream::pos_type(-1))
            return std::numeric_limits<std::uint64_t>::max();
        in_.seekg(0, std::ios::end);
        const std::istream::pos_type end = in_.tellg();
        in_.seekg(at);
        if (end == std::istream::pos_type(-1) || end < at)
            return std::numeric_limits<std::uint64_t>::max();
        return static_cast<std::uint64_t>(end - at);
    }

    /** Throw IoError unless the stream is exactly exhausted. */
    void
    expectEof()
    {
        if (in_.peek() != std::istream::traits_type::eof())
            throwIoError("'%s': trailing bytes after payload",
                         name_.c_str());
    }

    /** @return label used in error messages. */
    const std::string &name() const { return name_; }

  private:
    std::istream &in_;
    std::string name_;
};

/**
 * The shared bool codec of every on-disk format: one byte, 0 or 1.
 * Centralised here so the plan and result wire formats can never
 * drift apart.
 */
inline void
writeBool(BinaryWriter &w, bool v)
{
    w.pod<std::uint8_t>(v ? 1 : 0);
}

/** Exact inverse of writeBool; throws IoError on any other byte. */
inline bool
readBool(BinaryReader &r)
{
    const auto b = r.pod<std::uint8_t>();
    if (b > 1)
        throwIoError("'%s': corrupt boolean field",
                     r.name().c_str());
    return b == 1;
}

} // namespace tp

#endif // TP_COMMON_BINARY_IO_HH
