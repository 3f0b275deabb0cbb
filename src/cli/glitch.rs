//! The `glitch` subcommand: hunt for a dynamic glitch at a specific FF
//! pair's sink under random transport delays and dump the waveform as
//! VCD.

use super::load;
use mcp_sim::sample_glitch;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    let mut rng = StdRng::seed_from_u64(0x1905_0607);
    match sample_glitch(&nl, i, j, GLITCH_TRIALS, GLITCH_WORDS, &mut rng) {
        Err(edges) => {
            let _ = writeln!(
                out,
                "no dynamic glitch found at {dst}'s D input in {edges} sampled \
                 edges where {src} toggles"
            );
        }
        Ok(glitch) => {
            let mut file =
                std::fs::File::create(vcd_path).map_err(|e| format!("create `{vcd_path}`: {e}"))?;
            mcp_sim::vcd::write_vcd(&nl, &glitch.initial, &glitch.events, &mut file)
                .map_err(|e| format!("write `{vcd_path}`: {e}"))?;
            let _ = writeln!(
                out,
                "glitch found: {dst}'s D input transitioned {} times; \
                 waveform written to {vcd_path}",
                glitch.transitions
            );
        }
    }
    Ok(())
}
