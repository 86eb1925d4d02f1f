# Orphan-header lint: every header under src/ must be included by something
# other than its own .cpp and the tests — another module, a CLI command, a
# bench, an example or perfbench.  A header that only its tests include is
# code that no workload runs.
#
#   cmake -DROOT=<repo root> -P tools/check_includers.cmake
#
# Reads src, tools, bench, examples and perfbench; writes nothing.  Lists
# every orphan and exits nonzero if there is one.
if(NOT DEFINED ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P check_includers.cmake")
endif()

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.hpp")
foreach(dir src tools bench examples perfbench)
  file(GLOB_RECURSE files "${ROOT}/${dir}/*.cpp" "${ROOT}/${dir}/*.hpp")
  foreach(file IN LISTS files)
    file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*" "\\1" header "${line}")
      string(REGEX REPLACE "\\.hpp$" ".cpp" own "${ROOT}/src/${header}")
      if(NOT file STREQUAL own)
        set("included_${header}" TRUE)
      endif()
    endforeach()
  endforeach()
endforeach()

set(orphans)
foreach(header IN LISTS headers)
  if(NOT included_${header})
    list(APPEND orphans "src/${header}")
  endif()
endforeach()
list(LENGTH headers checked)
if(orphans)
  list(JOIN orphans "\n  " listed)
  message(FATAL_ERROR "headers with no includer outside their own .cpp "
                      "and tests/:\n  ${listed}")
endif()
message(STATUS "check_includers: ${checked} headers, every one included")
