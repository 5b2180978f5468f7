#include "support/hash.hpp"

#include <array>

namespace dce::support {

uint64_t
fnv1a64(std::string_view data)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char byte : data) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace {

std::string
toHex(uint64_t value, unsigned digits)
{
    static const char *kDigits = "0123456789abcdef";
    std::string out(digits, '0');
    for (unsigned i = 0; i < digits; ++i)
        out[digits - 1 - i] = kDigits[(value >> (4 * i)) & 0xf];
    return out;
}

/** Slicing-by-8 tables: tables[0] is the bytewise CRC-32 table and
 * tables[k][i] is tables[k - 1][i] advanced by one more zero byte, so
 * eight input bytes fold in with eight independent lookups. */
std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? 0xedb88320u : 0);
        tables[0][i] = crc;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
        }
    }
    return tables;
}

uint32_t
loadLe32(const unsigned char *bytes)
{
    return uint32_t(bytes[0]) | uint32_t(bytes[1]) << 8 |
           uint32_t(bytes[2]) << 16 | uint32_t(bytes[3]) << 24;
}

} // namespace

std::string
fnv1a64Hex(std::string_view data)
{
    return toHex(fnv1a64(data), 16);
}

uint32_t
crc32(std::string_view data)
{
    static const std::array<std::array<uint32_t, 256>, 8> t =
        makeCrcTables();
    uint32_t crc = 0xffffffffu;
    const auto *bytes = reinterpret_cast<const unsigned char *>(data.data());
    size_t left = data.size();
    for (; left >= 8; bytes += 8, left -= 8) {
        uint32_t lo = crc ^ loadLe32(bytes);
        uint32_t hi = loadLe32(bytes + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
              t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
              t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; left > 0; ++bytes, --left)
        crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xff];
    return crc ^ 0xffffffffu;
}

std::string
crc32Hex(std::string_view data)
{
    return toHex(crc32(data), 8);
}

} // namespace dce::support
