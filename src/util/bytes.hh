/**
 * @file
 * The one bounds-checked little-endian byte codec.
 *
 * Every binary format in the repo — `.tea`, binary `.traces`, the
 * `.tlog` container framing and the tead wire frames — reads and
 * writes its integers through these two classes, so the byte order,
 * the varint shape and the truncation rules live in one place.
 * PayloadReader throws FatalError on every underrun, over-long
 * string, over-wide varint and (via expectEnd) trailing byte, with the
 * format's name leading the message ("tea: truncated ..."), so a
 * malformed input can never be partially applied.
 *
 * Out of scope by design: the `.tlog` per-record decode kernel keeps
 * its own pointer cursor (svc/tracelog.cc ByteReader, one bounds check
 * per varint on the replay hot path), and `.teac` images are mmap'd
 * structs, not parsed.
 */

#ifndef TEA_UTIL_BYTES_HH
#define TEA_UTIL_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/varint.hh"

namespace tea {

/**
 * Little-endian builder. Appends to its own buffer (out()), or to a
 * caller's vector when constructed with one.
 */
class PayloadWriter
{
  public:
    PayloadWriter() = default;
    /** Append to `sink`, which must outlive the writer. */
    explicit PayloadWriter(std::vector<uint8_t> &sink) : bytes(&sink) {}

    PayloadWriter(const PayloadWriter &) = delete;
    PayloadWriter &operator=(const PayloadWriter &) = delete;

    void u8(uint8_t v) { bytes->push_back(v); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    /** LEB128 varint (util/varint.hh). */
    void var(uint64_t v) { putVar(*bytes, v); }
    /** u32 length + raw bytes. */
    void str(const std::string &s);
    /** Raw bytes, no length prefix. */
    void raw(const uint8_t *data, size_t len);

    const std::vector<uint8_t> &out() const { return *bytes; }

  private:
    std::vector<uint8_t> owned;
    std::vector<uint8_t> *bytes = &owned;
};

/**
 * Little-endian parser over a borrowed byte range, which must outlive
 * the reader. Every error is a FatalError whose message starts with
 * the format name given at construction.
 */
class PayloadReader
{
  public:
    explicit PayloadReader(const std::vector<uint8_t> &payload,
                           const char *format = "payload")
        : PayloadReader(payload.data(), payload.size(), format)
    {
    }

    PayloadReader(const uint8_t *bytes, size_t size,
                  const char *formatName = "payload")
        : data(bytes), len(size), format(formatName)
    {
    }

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    /**
     * A LEB128 varint that must fit in 32 bits: at most 5 bytes, and a
     * value above UINT32_MAX is rejected rather than truncated.
     */
    uint32_t var32();
    /** u32 length + bytes; @throws FatalError when longer than maxLen. */
    std::string str(size_t maxLen);
    /** The next n bytes, in place (valid as long as the input is). */
    const uint8_t *raw(size_t n);
    /** Everything not yet consumed. */
    std::vector<uint8_t> rest();

    size_t remaining() const { return len - pos; }
    /** @throws FatalError unless the input was fully consumed. */
    void expectEnd() const;

  private:
    const uint8_t *data;
    size_t len;
    size_t pos = 0;
    const char *format;
};

} // namespace tea

#endif // TEA_UTIL_BYTES_HH
