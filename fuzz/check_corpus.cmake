# Regenerates the seed corpus with gen_fuzz_corpus and compares it file by
# file with the committed one, so a codec change that moves a byte fails in
# every TANGO_FUZZ build, whatever the compiler:
#
#   cmake -DGEN=<gen_fuzz_corpus> -DCORPUS=<repo>/fuzz/corpus -DREGEN=<scratch dir>
#         -P check_corpus.cmake
foreach(var GEN CORPUS REGEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_corpus.cmake: -D${var}=... is required")
  endif()
  get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()

file(REMOVE_RECURSE "${REGEN}")
execute_process(COMMAND "${GEN}" "${REGEN}" RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "gen_fuzz_corpus failed: ${status}")
endif()

file(GLOB_RECURSE committed RELATIVE "${CORPUS}" "${CORPUS}/*")
file(GLOB_RECURSE fresh RELATIVE "${REGEN}" "${REGEN}/*")
if(committed STREQUAL "")
  message(FATAL_ERROR "no committed seeds under ${CORPUS}")
endif()
set(problems "")
foreach(seed IN LISTS committed)
  if(NOT EXISTS "${REGEN}/${seed}")
    string(APPEND problems "  ${seed}: committed, not regenerated\n")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${CORPUS}/${seed}"
                          "${REGEN}/${seed}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    string(APPEND problems "  ${seed}: bytes differ\n")
  endif()
endforeach()
foreach(seed IN LISTS fresh)
  if(NOT EXISTS "${CORPUS}/${seed}")
    string(APPEND problems "  ${seed}: regenerated, not committed\n")
  endif()
endforeach()

list(LENGTH committed count)
if(NOT problems STREQUAL "")
  message(FATAL_ERROR "fuzz/corpus does not match a fresh regeneration:\n${problems}")
endif()
message(STATUS "fuzz/corpus matches a fresh regeneration (${count} seeds)")
