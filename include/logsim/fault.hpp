#pragma once
// logsim/fault.hpp -- error model and fault machinery.
//
// Status / Result<T> (the library's structured error type), cooperative
// cancellation tokens, and the failpoint registry for fault injection
// (LOGSIM_FAILPOINTS).

#include "fault/cancel.hpp"     // IWYU pragma: export
#include "fault/failpoint.hpp"  // IWYU pragma: export
#include "fault/status.hpp"     // IWYU pragma: export
