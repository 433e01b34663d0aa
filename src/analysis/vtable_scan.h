/**
 * @file
 * Virtual-function-table discovery in stripped images.
 *
 * Binary types are represented by their vtables (paper Section 1,
 * problem statement). A data-section address is considered a vtable
 * when (a) some function materializes it and stores it through a
 * pointer -- the signature of object initialization -- and (b) the
 * words starting at that address form a non-empty run of valid
 * function entry points (including the _purecall trap).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "bir/image.h"

namespace rock::analysis {

/** One discovered vtable. */
struct VTableInfo {
    /** Address of slot 0 in the data section. */
    std::uint32_t addr = 0;
    /** Function entry addresses, one per slot. */
    std::vector<std::uint32_t> slots;

    bool operator==(const VTableInfo&) const = default;
};

/**
 * Scan @p image for vtables, reading each function's already-decoded
 * body: @p bodies[i] is the body of image.functions[i].
 *
 * @return discovered tables sorted by address.
 */
std::vector<VTableInfo>
scan_vtables(const bir::BinaryImage& image,
             const std::vector<std::vector<bir::Instr>>& bodies);

/** As above, decoding every function body first (fatal on a corrupt
 *  one, like BinaryImage::decode_function). */
std::vector<VTableInfo> scan_vtables(const bir::BinaryImage& image);

} // namespace rock::analysis
