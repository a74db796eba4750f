# Script mode (cmake -P): stamps util/build_info.h with the current git
# revision, compiler and build type. Run by the
# always-out-of-date `lsched_build_info` custom target so the sha tracks
# HEAD without a re-configure; copy_if_different keeps incremental builds
# quiet when nothing moved.
#
# Inputs (all -D):
#   GIT_DIR        source tree (for git rev-parse)
#   OUT            destination header path
#   BI_COMPILER    e.g. "GNU-13.2.0"
#   BI_BUILD_TYPE  e.g. "RelWithDebInfo"

execute_process(
  COMMAND git -C "${GIT_DIR}" rev-parse --short=12 HEAD
  OUTPUT_VARIABLE GIT_SHA
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE GIT_RC)
if(NOT GIT_RC EQUAL 0 OR GIT_SHA STREQUAL "")
  set(GIT_SHA "unknown")
else()
  execute_process(
    COMMAND git -C "${GIT_DIR}" status --porcelain --untracked-files=no
    OUTPUT_VARIABLE GIT_DIRTY
    ERROR_QUIET)
  if(NOT GIT_DIRTY STREQUAL "")
    set(GIT_SHA "${GIT_SHA}-dirty")
  endif()
endif()

set(CONTENT "// Generated by cmake/GenerateBuildInfo.cmake — do not edit.
#ifndef LSCHED_UTIL_BUILD_INFO_H_
#define LSCHED_UTIL_BUILD_INFO_H_

namespace lsched {
namespace buildinfo {

inline constexpr const char kGitSha[] = \"${GIT_SHA}\";
inline constexpr const char kCompiler[] = \"${BI_COMPILER}\";
inline constexpr const char kBuildType[] = \"${BI_BUILD_TYPE}\";

}  // namespace buildinfo
}  // namespace lsched

#endif  // LSCHED_UTIL_BUILD_INFO_H_
")

file(WRITE "${OUT}.tmp" "${CONTENT}")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy_if_different "${OUT}.tmp" "${OUT}")
file(REMOVE "${OUT}.tmp")
