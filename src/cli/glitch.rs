//! The `glitch` subcommand: hunt for a dynamic glitch at a specific FF
//! pair's sink under random transport delays and dump the waveform as
//! VCD.

use super::load;
use mcp_netlist::Netlist;
use std::fmt::Write as _;

const GLITCH_TRIALS: usize = 512;

/// Random 64-lane words sampled at most. A source FF that never toggles
/// (one that holds its value) yields no trial, so the trial budget alone
/// would never end the hunt. Eight words per wanted trial still fills
/// the trials of a source that toggles in one lane in 512.
const GLITCH_WORDS: usize = 8 * GLITCH_TRIALS;

/// `glitch`: sample random edges where `src` toggles until `dst`'s D
/// input glitches, then write the VCD waveform.
pub(crate) fn glitch(
    path: &str,
    src: &str,
    dst: &str,
    vcd_path: &str,
    out: &mut String,
) -> Result<(), String> {
    let nl = load(path)?;
    let find_ff = |name: &str| -> Result<usize, String> {
        nl.find_node(name)
            .and_then(|id| nl.ff_index(id))
            .ok_or_else(|| format!("`{name}` is not a flip-flop of the circuit"))
    };
    let (i, j) = (find_ff(src)?, find_ff(dst)?);
    match hunt_glitch(&nl, i, j) {
        Err(edges) => {
            let _ = writeln!(
                out,
                "no dynamic glitch found at {dst}'s D input in {edges} sampled \
                 edges where {src} toggles"
            );
        }
        Ok((initial, events, transitions)) => {
            let mut file =
                std::fs::File::create(vcd_path).map_err(|e| format!("create `{vcd_path}`: {e}"))?;
            mcp_sim::vcd::write_vcd(&nl, &initial, &events, &mut file)
                .map_err(|e| format!("write `{vcd_path}`: {e}"))?;
            let _ = writeln!(
                out,
                "glitch found: {dst}'s D input transitioned {transitions} times; \
                 waveform written to {vcd_path}"
            );
        }
    }
    Ok(())
}

/// Samples random pre/post-edge value pairs where FF `i` toggles, under
/// random transport delays, until FF `j`'s D input glitches; returns the
/// initial values, the event trace and the transition count, or the
/// number of edges sampled without a glitch once the trial or word
/// budget runs out.
#[allow(clippy::type_complexity)]
fn hunt_glitch(
    nl: &Netlist,
    i: usize,
    j: usize,
) -> Result<(Vec<bool>, Vec<(u64, mcp_netlist::NodeId, bool)>, u32), usize> {
    use mcp_sim::{DelaySim, ParallelSim};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x1905_0607);
    let mut psim = ParallelSim::new(nl);
    let dst = nl.ff_d_input(j);
    let mut trials = 0usize;
    for _ in 0..GLITCH_WORDS {
        if trials >= GLITCH_TRIALS {
            break;
        }
        psim.randomize_state(&mut rng);
        psim.randomize_inputs(&mut rng);
        let s0: Vec<u64> = (0..nl.num_ffs()).map(|k| psim.state(k)).collect();
        psim.eval();
        let in0: Vec<u64> = nl.inputs().iter().map(|&pi| psim.value(pi)).collect();
        let s1: Vec<u64> = (0..nl.num_ffs()).map(|k| psim.next_state(k)).collect();
        let toggles = s0[i] ^ s1[i];
        for lane in 0..64 {
            if toggles >> lane & 1 == 0 || trials >= GLITCH_TRIALS {
                continue;
            }
            trials += 1;
            let bit = |w: u64| w >> lane & 1 == 1;
            let pis0: Vec<bool> = in0.iter().map(|&w| bit(w)).collect();
            let ffs0: Vec<bool> = s0.iter().map(|&w| bit(w)).collect();
            let ffs1: Vec<bool> = s1.iter().map(|&w| bit(w)).collect();
            let pis1: Vec<bool> = (0..nl.num_inputs()).map(|_| rng.random()).collect();
            let mut dsim = DelaySim::new(nl);
            for &g in nl.topo_gates() {
                dsim.set_delay(g, rng.random_range(1..16));
            }
            dsim.record_waveforms(true);
            dsim.init(&pis0, &ffs0);
            let initial: Vec<bool> = nl.nodes().map(|(id, _)| dsim.value(id)).collect();
            let report = dsim.edge(&pis1, &ffs1);
            if report.glitched(dst) {
                return Ok((initial, report.events().to_vec(), report.transitions(dst)));
            }
        }
    }
    Err(trials)
}
