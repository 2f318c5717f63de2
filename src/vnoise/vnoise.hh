/**
 * @file
 * Umbrella header for the vnoise library: voltage-noise
 * characterization of multi-core processors (reproduction of Bertran
 * et al., MICRO 2014).
 *
 * Layers, bottom to top:
 *  - util:       logging, RNG, statistics, tables, dense linear algebra
 *  - runtime:    work-stealing pool, campaign engine, result cache
 *  - circuit:    RLC netlists, transient (MNA/trapezoidal) and AC solvers
 *  - pdn:        the zEC12-like power distribution network
 *  - isa/uarch:  synthetic z-like ISA and the superscalar core model
 *  - measure:    skitter sensors, critical path / R-Unit, power meter
 *  - chip:       six-core co-simulation, TOD sync, variation, Vmin
 *  - stressmark: EPI profile, sequence search, dI/dt stressmark builder
 *  - analysis:   the paper's experiments (sweeps, mappings, margins,
 *                guard-banding)
 */

#ifndef VN_VNOISE_VNOISE_HH
#define VN_VNOISE_VNOISE_HH

#include "analysis/campaigns.hh"
#include "analysis/context.hh"
#include "analysis/customer.hh"
#include "analysis/estimator.hh"
#include "analysis/events.hh"
#include "analysis/guardband.hh"
#include "analysis/mapping.hh"
#include "analysis/margins.hh"
#include "analysis/scaling.hh"
#include "analysis/scheduler.hh"
#include "analysis/serving.hh"
#include "analysis/spectrum.hh"
#include "analysis/sweeps.hh"
#include "chip/activity.hh"
#include "chip/chip.hh"
#include "chip/configio.hh"
#include "chip/tod.hh"
#include "chip/variation.hh"
#include "chip/vmin.hh"
#include "circuit/ac.hh"
#include "circuit/factorization.hh"
#include "circuit/netlist.hh"
#include "circuit/transient.hh"
#include "circuit/waveform.hh"
#include "isa/disruptive.hh"
#include "isa/instr.hh"
#include "isa/program.hh"
#include "isa/table.hh"
#include "measure/critpath.hh"
#include "measure/meter.hh"
#include "measure/skitter.hh"
#include "pdn/pdn.hh"
#include "runtime/runtime.hh"
#include "stressmark/epi.hh"
#include "stressmark/genetic.hh"
#include "stressmark/kit.hh"
#include "stressmark/sequences.hh"
#include "stressmark/stressmark.hh"
#include "uarch/core.hh"
#include "util/kvfile.hh"
#include "util/logging.hh"
#include "util/paths.hh"
#include "util/fft.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

#endif // VN_VNOISE_VNOISE_HH
