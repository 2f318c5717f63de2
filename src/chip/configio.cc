#include "chip/configio.hh"

#include <cmath>

#include "util/kvfile.hh"
#include "util/logging.hh"

namespace vn
{

namespace
{

/**
 * Field table: one row per tunable, mapping the dotted key to the
 * member inside ChipConfig. Using accessors keeps save and load in
 * lockstep (a field added here is automatically round-tripped).
 */
struct Field
{
    const char *key;
    double ChipConfig::*direct = nullptr;
    double PdnConfig::*pdn = nullptr;
    double SkitterParams::*skitter = nullptr;
    double CritPathParams::*critpath = nullptr;
};

const Field kScalarFields[] = {
    {"chip.power_unit_amps", &ChipConfig::power_unit_amps},
    {"chip.nest_amps", &ChipConfig::nest_amps},
    {"chip.mcu_amps", &ChipConfig::mcu_amps},
    {"chip.gx_amps", &ChipConfig::gx_amps},
    {"chip.bias", &ChipConfig::bias},
    {"chip.dt", &ChipConfig::dt},

    {"pdn.vnom", nullptr, &PdnConfig::vnom},
    {"pdn.r_mb", nullptr, &PdnConfig::r_mb},
    {"pdn.l_mb", nullptr, &PdnConfig::l_mb},
    {"pdn.c_mb", nullptr, &PdnConfig::c_mb},
    {"pdn.c_mb_esr", nullptr, &PdnConfig::c_mb_esr},
    {"pdn.r_pkg1", nullptr, &PdnConfig::r_pkg1},
    {"pdn.l_pkg1", nullptr, &PdnConfig::l_pkg1},
    {"pdn.c_pkg", nullptr, &PdnConfig::c_pkg},
    {"pdn.c_pkg_esr", nullptr, &PdnConfig::c_pkg_esr},
    {"pdn.r_pkg2", nullptr, &PdnConfig::r_pkg2},
    {"pdn.l_pkg2", nullptr, &PdnConfig::l_pkg2},
    {"pdn.c_die_fast", nullptr, &PdnConfig::c_die_fast},
    {"pdn.c_die_fast_esr", nullptr, &PdnConfig::c_die_fast_esr},
    {"pdn.c_die_damp", nullptr, &PdnConfig::c_die_damp},
    {"pdn.c_die_damp_esr", nullptr, &PdnConfig::c_die_damp_esr},
    {"pdn.c_l3", nullptr, &PdnConfig::c_l3},
    {"pdn.c_l3_esr", nullptr, &PdnConfig::c_l3_esr},
    {"pdn.r_dom_l3", nullptr, &PdnConfig::r_dom_l3},
    {"pdn.r_rail", nullptr, &PdnConfig::r_rail},
    {"pdn.l_rail", nullptr, &PdnConfig::l_rail},
    {"pdn.c_core", nullptr, &PdnConfig::c_core},
    {"pdn.c_core_esr", nullptr, &PdnConfig::c_core_esr},
    {"pdn.r_neighbor", nullptr, &PdnConfig::r_neighbor},
    {"pdn.r_mcu", nullptr, &PdnConfig::r_mcu},
    {"pdn.c_mcu", nullptr, &PdnConfig::c_mcu},
    {"pdn.c_mcu_esr", nullptr, &PdnConfig::c_mcu_esr},
    {"pdn.r_gx", nullptr, &PdnConfig::r_gx},
    {"pdn.c_gx", nullptr, &PdnConfig::c_gx},
    {"pdn.c_gx_esr", nullptr, &PdnConfig::c_gx_esr},

    {"skitter.nominal_delay_s", nullptr, nullptr,
     &SkitterParams::nominal_delay_s},
    {"skitter.vnom", nullptr, nullptr, &SkitterParams::vnom},
    {"skitter.vth", nullptr, nullptr, &SkitterParams::vth},
    {"skitter.alpha", nullptr, nullptr, &SkitterParams::alpha},
    {"skitter.gain", nullptr, nullptr, &SkitterParams::gain},
    {"skitter.clock_hz", nullptr, nullptr, &SkitterParams::clock_hz},

    {"critpath.vnom", nullptr, nullptr, nullptr, &CritPathParams::vnom},
    {"critpath.vth", nullptr, nullptr, nullptr, &CritPathParams::vth},
    {"critpath.alpha", nullptr, nullptr, nullptr,
     &CritPathParams::alpha},
    {"critpath.clock_hz", nullptr, nullptr, nullptr,
     &CritPathParams::clock_hz},
    {"critpath.nominal_path_fraction", nullptr, nullptr, nullptr,
     &CritPathParams::nominal_path_fraction},
};

double &
fieldRef(ChipConfig &config, const Field &field)
{
    if (field.direct)
        return config.*(field.direct);
    if (field.pdn)
        return config.pdn.*(field.pdn);
    if (field.skitter)
        return config.skitter.*(field.skitter);
    if (field.critpath)
        return config.critpath.*(field.critpath);
    panic("configio: field '", field.key, "' has no binding");
}

std::string
coreKey(const char *what, int core)
{
    return std::string("variation.core") + std::to_string(core) + "." +
           what;
}

} // namespace

KeyValueFile
chipConfigKeyValues(const ChipConfig &config)
{
    KeyValueFile kv;
    ChipConfig copy = config;
    for (const auto &field : kScalarFields)
        kv.set(field.key, fieldRef(copy, field));

    kv.set("core.clock_hz", config.core.clock_hz);
    kv.set("core.dispatch_width", config.core.dispatch_width);
    kv.set("core.rob_size", config.core.rob_size);
    kv.set("core.max_branches_per_cycle",
           config.core.max_branches_per_cycle);
    kv.set("core.static_power", config.core.static_power);
    kv.set("skitter.inverters", config.skitter.inverters);

    for (int c = 0; c < kNumCores; ++c) {
        const auto &v = config.variation.core[c];
        kv.set(coreKey("power_scale", c), v.power_scale);
        kv.set(coreKey("rail_res_scale", c), v.rail_res_scale);
        kv.set(coreKey("decap_scale", c), v.decap_scale);
        kv.set(coreKey("skitter_gain_scale", c), v.skitter_gain_scale);
    }
    return kv;
}

void
saveChipConfig(const ChipConfig &config, const std::string &path)
{
    chipConfigKeyValues(config).save(path, "vnoise chip configuration");
}

ChipConfig
loadChipConfig(const std::string &path, const ChipConfig &base)
{
    KeyValueFile kv = KeyValueFile::load(path);
    // The parser accepts nan and inf, which no field can take.
    auto get = [&](const std::string &key, double fallback) {
        double value = kv.get(key, fallback);
        if (!std::isfinite(value))
            fatal("loadChipConfig(", path, "): ", key,
                  " must be finite, got ", value);
        return value;
    };

    ChipConfig config = base;
    for (const auto &field : kScalarFields) {
        double &ref = fieldRef(config, field);
        ref = get(field.key, ref);
    }

    config.core.clock_hz = get("core.clock_hz", config.core.clock_hz);
    config.core.dispatch_width = static_cast<int>(
        get("core.dispatch_width", config.core.dispatch_width));
    config.core.rob_size =
        static_cast<int>(get("core.rob_size", config.core.rob_size));
    config.core.max_branches_per_cycle = static_cast<int>(
        get("core.max_branches_per_cycle",
            config.core.max_branches_per_cycle));
    config.core.static_power =
        get("core.static_power", config.core.static_power);
    config.skitter.inverters = static_cast<int>(
        get("skitter.inverters", config.skitter.inverters));

    for (int c = 0; c < kNumCores; ++c) {
        auto &v = config.variation.core[c];
        v.power_scale = get(coreKey("power_scale", c), v.power_scale);
        v.rail_res_scale =
            get(coreKey("rail_res_scale", c), v.rail_res_scale);
        v.decap_scale = get(coreKey("decap_scale", c), v.decap_scale);
        v.skitter_gain_scale =
            get(coreKey("skitter_gain_scale", c), v.skitter_gain_scale);
    }
    return config;
}

} // namespace vn
