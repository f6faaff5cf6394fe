# Fails unless the JSON file JSON names every key of the ;-list KEYS.
# Format check for bench smoke outputs; it reads no values.
#
#   cmake -DJSON=BENCH_fleet_smoke.json "-DKEYS=a;b" -P check_json_fields.cmake
file(READ "${JSON}" text)
foreach(key IN LISTS KEYS)
  string(FIND "${text}" "\"${key}\":" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${JSON} has no \"${key}\" field")
  endif()
endforeach()
