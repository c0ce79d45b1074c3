// Runtime CPU feature detection for the SIMD kernel dispatch
// (core/kernels). Wraps the compiler's cpuid machinery so the kernels and
// their tests share one answer about what the *running* machine supports —
// compile-time ISA flags only say what the binary contains.

#ifndef NIDC_UTIL_CPUID_H_
#define NIDC_UTIL_CPUID_H_

namespace nidc {

/// True when the running CPU supports AVX2 + F16C (the fp16 loads the
/// quantized scoring pass uses are F16C conversions).
bool CpuSupportsAvx2();

/// True when the running CPU supports the AVX-512 foundation set
/// (AVX512F), which covers every 512-bit instruction the kernels emit:
/// masked arithmetic, expand, gather/scatter and vcvtph2ps on zmm — plus
/// POPCNT, which the register-resident exact kernel uses to step through
/// a term's postings.
bool CpuSupportsAvx512();

}  // namespace nidc

#endif  // NIDC_UTIL_CPUID_H_
