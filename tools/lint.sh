#!/usr/bin/env bash
# Repository lint — a thin wrapper:
#
#   1. sgcheck (tools/sgcheck/): the dependency-free protocol checker. It
#      owns every rule this script used to grep for (spinlock internals,
#      group_fds_/pregions() privacy, inject-point registry) plus the deep ones
#      (sleep-in-atomic, guard-escape, seqcount-bracket, guarded-fields).
#      Always runs; builds itself with the system C++ compiler if the build
#      tree hasn't produced a binary yet.
#   2. clang-tidy, only when installed AND the build dir has a compile
#      database (the container image ships gcc only, so usually skipped).
#
#   tools/lint.sh [build-dir]
#
# Exit nonzero on any violation.
set -uo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-${repo}/build}
fail=0

# ---------------------------------------------------------------------------
# 1. sgcheck.
# ---------------------------------------------------------------------------
sgcheck="${build_dir}/tools/sgcheck/sgcheck"
if [ ! -x "${sgcheck}" ]; then
  # No built binary: compile one into a scratch dir (four files, seconds).
  scratch=$(mktemp -d)
  trap 'rm -rf "${scratch}"' EXIT
  cxx=${CXX:-c++}
  echo "lint: building sgcheck with ${cxx} (no binary at ${sgcheck})" >&2
  if ! "${cxx}" -std=c++20 -O1 -o "${scratch}/sgcheck" \
       "${repo}"/tools/sgcheck/lexer.cc "${repo}"/tools/sgcheck/parser.cc \
       "${repo}"/tools/sgcheck/rules.cc "${repo}"/tools/sgcheck/main.cc; then
    echo "lint: sgcheck failed to build" >&2
    exit 1
  fi
  sgcheck="${scratch}/sgcheck"
fi

echo "== sgcheck" >&2
if ! "${sgcheck}" --repo "${repo}" \
       --inject-registry "${repo}/tools/inject_points.txt"; then
  fail=1
fi

# ---------------------------------------------------------------------------
# 2. clang-tidy (optional).
# ---------------------------------------------------------------------------
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint: clang-tidy not found; skipping (sgcheck already ran)" >&2
elif [ ! -f "${build_dir}/compile_commands.json" ]; then
  echo "lint: ${build_dir}/compile_commands.json missing; skipping clang-tidy" >&2
  echo "      configure with: cmake -B ${build_dir} -S ${repo} -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
else
  echo "== clang-tidy" >&2
  # shellcheck disable=SC2046
  if ! clang-tidy -p "${build_dir}" --quiet $(find "${repo}/src" -name '*.cc' | sort); then
    fail=1
  fi
fi

if [ "${fail}" -ne 0 ]; then
  echo "lint: FAIL" >&2
  exit 1
fi
echo "lint: OK" >&2
