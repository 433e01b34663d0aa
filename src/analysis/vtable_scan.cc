#include "analysis/vtable_scan.h"

#include <algorithm>
#include <array>

#include "bir/isa.h"

namespace rock::analysis {

using bir::Instr;
using bir::Op;

std::vector<VTableInfo>
scan_vtables(const bir::BinaryImage& image,
             const std::vector<std::vector<bir::Instr>>& bodies)
{
    // Step 1: collect data-section addresses that some function both
    // materializes (MovImm) and stores through a pointer. A linear,
    // flow-insensitive pass per function is sufficient and
    // conservative: it may propose false candidates, which step 2
    // filters.
    std::vector<std::uint32_t> candidates;
    for (const auto& body : bodies) {
        std::array<std::uint32_t, bir::kNumRegs> reg_const{};
        std::array<bool, bir::kNumRegs> reg_is_data{};
        reg_is_data.fill(false);
        for (const auto& instr : body) {
            switch (instr.op) {
              case Op::MovImm:
                reg_is_data[instr.a] = image.in_data(instr.imm);
                reg_const[instr.a] = instr.imm;
                break;
              case Op::MovReg:
                reg_is_data[instr.a] = reg_is_data[instr.b];
                reg_const[instr.a] = reg_const[instr.b];
                break;
              case Op::Store:
                if (reg_is_data[instr.b])
                    candidates.push_back(reg_const[instr.b]);
                break;
              case Op::Load:
              case Op::GetArg:
              case Op::GetRet:
              case Op::AddImm:
                // Register is clobbered with a non-constant.
                reg_is_data[instr.a] = false;
                break;
              default:
                break;
            }
        }
    }

    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    // Step 2: keep candidates whose words form a run of function
    // entry points. The run stops at the first word that is not a
    // function start -- in practice the next vtable's RTTI
    // back-pointer (zero when stripped) or unrelated data.
    std::vector<VTableInfo> tables;
    for (std::uint32_t addr : candidates) {
        VTableInfo info;
        info.addr = addr;
        std::uint32_t cur = addr;
        while (true) {
            auto word = image.read_data_word(cur);
            if (!word || !image.is_function_start(*word))
                break;
            info.slots.push_back(*word);
            cur += bir::kWordSize;
        }
        if (!info.slots.empty())
            tables.push_back(std::move(info));
    }
    return tables; // candidates ascend, so tables do
}

std::vector<VTableInfo>
scan_vtables(const bir::BinaryImage& image)
{
    std::vector<std::vector<bir::Instr>> bodies;
    bodies.reserve(image.functions.size());
    for (const auto& fn : image.functions)
        bodies.push_back(image.decode_function(fn));
    return scan_vtables(image, bodies);
}

} // namespace rock::analysis
