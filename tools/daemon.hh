/**
 * @file
 * The vnoised daemon's command line and start-up, run by both
 * `vnoised` and `vnoise_cli serve`.
 */

#ifndef VN_TOOLS_DAEMON_HH
#define VN_TOOLS_DAEMON_HH

#include "args.hh"

namespace vn::tools
{

/**
 * Check the daemon's flags, then build (or load) the stressmark kit,
 * serve until SIGINT/SIGTERM or a `shutdown` request, and drain.
 * Returns the process exit status: 0, or 2 on a usage error.
 */
int vnoisedMain(const Args &args);

} // namespace vn::tools

#endif // VN_TOOLS_DAEMON_HH
