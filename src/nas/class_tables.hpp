// Problem-class tables and wire constants (tags, message shapes) of the
// NAS kernels' communication templates (symbolic.cpp), one block per
// kernel.
//
// The executable kernels keep their own copies on purpose: the per-kernel
// trace-conformance ctests (a traced live run embedded into the
// instantiated template) tie those to these, and the instantiation gate
// (tests/golden/skeleton_digests.txt) pins the templates' output.
#pragma once

#include <cstdint>

#include "nas/common.hpp"

namespace ovp::nas::tables {

inline constexpr Bytes kD = 8;   // sizeof(double)
inline constexpr Bytes kC = 16;  // sizeof(Complex)

// ---- CG ----
struct CgSizes {
  int n, niter, cgit;
};
[[nodiscard]] constexpr CgSizes cgSizes(Class c) {
  switch (c) {
    case Class::S: return {1024, 2, 5};
    case Class::A: return {4096, 3, 8};
    case Class::B: return {16384, 3, 10};
  }
  return {1024, 2, 5};
}
inline constexpr int kCgTagSeg = 100;

// ---- EP ----
[[nodiscard]] constexpr std::int64_t epPairs(Class c) {
  switch (c) {
    case Class::S: return 1LL << 16;
    case Class::A: return 1LL << 19;
    case Class::B: return 1LL << 21;
  }
  return 1LL << 16;
}

// ---- IS ----
struct IsSizes {
  std::int64_t keys;
  int max_key;
  int niter;
};
[[nodiscard]] constexpr IsSizes isSizes(Class c) {
  switch (c) {
    case Class::S: return {1LL << 15, 1 << 11, 3};
    case Class::A: return {1LL << 18, 1 << 14, 3};
    case Class::B: return {1LL << 20, 1 << 16, 3};
  }
  return {1LL << 15, 1 << 11, 3};
}

// ---- FT ----
struct FtSizes {
  int nx, ny, nz, niter;
};
[[nodiscard]] constexpr FtSizes ftSizes(Class c) {
  switch (c) {
    case Class::S: return {32, 32, 32, 2};
    case Class::A: return {64, 64, 64, 3};
    case Class::B: return {128, 64, 64, 3};
  }
  return {32, 32, 32, 2};
}

// ---- MG ----
struct MgSizes {
  int n, cycles;
};
[[nodiscard]] constexpr MgSizes mgSizes(Class c) {
  switch (c) {
    case Class::S: return {16, 2};
    case Class::A: return {32, 3};
    case Class::B: return {64, 3};
  }
  return {16, 2};
}
inline constexpr int kMgTagExch = 500;  // + level*8 + dir
inline constexpr int kMgCoarseSweeps = 4;

// ---- LU / SP / BT: 2-D process grid over (x, y), z kept whole ----
struct GridSizes {
  int nx, ny, nz, niter;
};
inline constexpr int kNcomp = 5;  // solution components per grid point

// ---- LU ----
[[nodiscard]] constexpr GridSizes luSizes(Class c) {
  switch (c) {
    case Class::S: return {16, 16, 8, 3};
    case Class::A: return {32, 32, 16, 3};
    case Class::B: return {48, 48, 24, 3};
  }
  return {16, 16, 8, 3};
}
inline constexpr int kLuTagFaceW = 200, kLuTagFaceN = 201;
inline constexpr int kLuTagSweepCol = 210, kLuTagSweepRow = 211;
inline constexpr int kLuTagBackCol = 212, kLuTagBackRow = 213;

// ---- SP ----
[[nodiscard]] constexpr GridSizes spSizes(Class c) {
  switch (c) {
    case Class::S: return {24, 24, 16, 3};
    case Class::A: return {48, 48, 48, 3};
    case Class::B: return {72, 72, 48, 3};
  }
  return {24, 24, 16, 3};
}
inline constexpr int kSpTagFace = 300;
inline constexpr int kSpTagFwdX = 310, kSpTagBwdX = 340;  // + stage
inline constexpr int kSpTagFwdY = 370, kSpTagBwdY = 400;  // + stage
inline constexpr int kSpStages = 3;  // SpParams::stages default (nas_run)
inline constexpr int kSpFwdDoubles = 14, kSpBwdDoubles = 10;  // per line

// ---- BT ----
[[nodiscard]] constexpr GridSizes btSizes(Class c) {
  switch (c) {
    case Class::S: return {24, 24, 12, 2};
    case Class::A: return {36, 36, 16, 3};
    case Class::B: return {48, 48, 24, 3};
  }
  return {24, 24, 12, 2};
}
inline constexpr int kBtTagFace = 400;
inline constexpr int kBtTagFwdX = 410, kBtTagBwdX = 411;
inline constexpr int kBtTagFwdY = 412, kBtTagBwdY = 413;
// Per line: 5x5 block + rhs forward, rhs backward.
inline constexpr int kBtFwdDoubles = 30, kBtBwdDoubles = 5;

}  // namespace ovp::nas::tables
