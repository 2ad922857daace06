# Golden gate for the paper binaries: runs each one and compares its stdout
# byte for byte with GOLDEN_DIR/<name>.txt. With PSME_UPDATE_GOLDEN set in
# the environment it rewrites the goldens instead.
#
#   cmake -DBIN_DIR=<dir of the binaries> -DGOLDEN_DIR=<goldens>
#         -DOUT_DIR=<scratch dir> -DNAMES=<name>,<name>,...
#         -P tests/paper_golden.cmake
string(REPLACE "," ";" names "${NAMES}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")
foreach(name IN LISTS names)
  set(actual "${OUT_DIR}/${name}.txt")
  set(golden "${GOLDEN_DIR}/${name}.txt")
  execute_process(COMMAND "${BIN_DIR}/${name}" OUTPUT_FILE "${actual}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} exited with ${rc}")
    list(APPEND failed ${name})
  elseif(DEFINED ENV{PSME_UPDATE_GOLDEN})
    configure_file("${actual}" "${golden}" COPYONLY)
    message(STATUS "${name}: golden rewritten")
  else()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${golden}" "${actual}"
                    RESULT_VARIABLE differs)
    if(differs EQUAL 0)
      message(STATUS "${name}: matches its golden")
    else()
      execute_process(COMMAND diff -u "${golden}" "${actual}")
      list(APPEND failed ${name})
    endif()
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "paper output differs from its golden: ${failed}\n"
          "If the change is intended, regenerate with PSME_UPDATE_GOLDEN=1.")
endif()
