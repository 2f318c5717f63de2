/**
 * @file
 * vnoised: the batching simulation daemon, as a standalone binary.
 *
 * The same daemon, flags and start-up as `vnoise_cli serve`
 * (daemon.hh) — packaged separately so deployments can ship the daemon
 * without the whole characterization toolbox. See docs/serving.md for
 * the protocol and tuning guidance.
 */

#include "daemon.hh"

int
main(int argc, char **argv)
{
    return vn::tools::vnoisedMain(
        vn::tools::Args("vnoised", argc, argv, 1));
}
