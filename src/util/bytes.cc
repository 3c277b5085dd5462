#include "util/bytes.hh"

#include <cstdint>

#include "util/logging.hh"

namespace tea {

void
PayloadWriter::u16(uint16_t v)
{
    bytes->push_back(static_cast<uint8_t>(v));
    bytes->push_back(static_cast<uint8_t>(v >> 8));
}

void
PayloadWriter::u32(uint32_t v)
{
    u16(static_cast<uint16_t>(v));
    u16(static_cast<uint16_t>(v >> 16));
}

void
PayloadWriter::u64(uint64_t v)
{
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
}

void
PayloadWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    bytes->insert(bytes->end(), s.begin(), s.end());
}

void
PayloadWriter::raw(const uint8_t *data, size_t len)
{
    bytes->insert(bytes->end(), data, data + len);
}

const uint8_t *
PayloadReader::raw(size_t n)
{
    if (len - pos < n)
        fatal("%s: truncated (need %zu bytes, have %zu)", format, n,
              len - pos);
    const uint8_t *p = data + pos;
    pos += n;
    return p;
}

uint8_t
PayloadReader::u8()
{
    return *raw(1);
}

uint16_t
PayloadReader::u16()
{
    const uint8_t *p = raw(2);
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t
PayloadReader::u32()
{
    const uint8_t *p = raw(4);
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t
PayloadReader::u64()
{
    uint64_t lo = u32();
    uint64_t hi = u32();
    return lo | (hi << 32);
}

uint32_t
PayloadReader::var32()
{
    // Bound the shared LEB128 reader to 5 bytes: enough for any u32.
    bool shortInput = len - pos < 5;
    uint64_t v = 0;
    if (!getVar(data, shortInput ? len : pos + 5, pos, v))
        fatal("%s: %s varint", format,
              shortInput ? "truncated" : "over-long");
    if (v > UINT32_MAX)
        fatal("%s: varint value %llu exceeds 32 bits", format,
              static_cast<unsigned long long>(v));
    return static_cast<uint32_t>(v);
}

std::string
PayloadReader::str(size_t maxLen)
{
    uint32_t n = u32();
    if (n > maxLen)
        fatal("%s: string of %u bytes exceeds the %zu limit", format, n,
              maxLen);
    const uint8_t *p = raw(n);
    return std::string(reinterpret_cast<const char *>(p), n);
}

std::vector<uint8_t>
PayloadReader::rest()
{
    const uint8_t *p = data + pos;
    std::vector<uint8_t> out(p, p + remaining());
    pos = len;
    return out;
}

void
PayloadReader::expectEnd() const
{
    if (pos != len)
        fatal("%s: %zu trailing bytes", format, len - pos);
}

} // namespace tea
