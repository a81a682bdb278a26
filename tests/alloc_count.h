// alloc_count.h — count the global operator new calls a test makes.
//
// Linking alloc_count.cpp into a test executable (tests/CMakeLists.txt)
// replaces the global operator new/delete of that binary only. The
// replacements live in their own translation unit: defined next to test
// code, the compiler inlines the malloc/free pair into functions whose
// new-expressions it can see and reports -Wmismatched-new-delete.
#pragma once

#include <cstdint>

namespace dynamips {

/// Counts global operator new calls while alive. Counting is gated on a
/// flag, so gtest's own bookkeeping outside a scope is not counted.
class AllocationScope {
 public:
  AllocationScope();
  ~AllocationScope();
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  std::uint64_t count() const;
};

}  // namespace dynamips
