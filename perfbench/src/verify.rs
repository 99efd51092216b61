//! The correctness gate, run outside every timed region: a mapped
//! netlist must be structurally sound and row-legal (through
//! `lily-check`'s public passes) and must compute the same functions as
//! the job's *input* network. The reference is the input network
//! simulated by `lily-netlist`, never anything the mapper produced.

use lily_cells::{Library, MappedNetwork};
use lily_core::flow::FlowOptions;
use lily_netlist::sim::{exhaustive_word, simulate_network64, XorShift64};
use lily_netlist::Network;

/// Random vectors per check (exhaustive at or below [`EXHAUSTIVE_INPUTS`]).
const VECTORS: usize = 256;
/// Input count up to which every input pattern is simulated.
const EXHAUSTIVE_INPUTS: usize = 8;

/// Checks one mapped result of `net` under `options`.
///
/// # Errors
///
/// A one-line description of the first failure.
pub fn check_result(
    net: &Network,
    mapped: &MappedNetwork,
    lib: &Library,
    options: &FlowOptions,
    seed: u64,
) -> Result<(), String> {
    let structural = lily_check::check_mapped(mapped, lib);
    if structural.has_errors() {
        return Err(format!("mapped netlist is malformed: {structural}"));
    }
    if mapped.cell_count() > 0 {
        // The flow sizes the final core from the mapped area with the
        // same public area model; legality is judged against it.
        let core = options.physical.area_model.core_region(mapped.instance_area(lib));
        let placement = lily_check::check_placement(mapped, lib, core);
        if placement.has_errors() {
            return Err(format!("placement is not legal: {placement}"));
        }
    }
    equivalent(net, mapped, lib, seed)
}

/// Co-simulates the input network and the mapped netlist, matching
/// ports by name.
fn equivalent(
    net: &Network,
    mapped: &MappedNetwork,
    lib: &Library,
    seed: u64,
) -> Result<(), String> {
    let in_names: Vec<&str> = net.inputs().iter().map(|&id| net.node(id).name.as_str()).collect();
    if in_names.len() != mapped.input_names.len() || net.output_count() != mapped.outputs.len() {
        return Err(format!(
            "interface mismatch: network {}/{} inputs/outputs, mapped {}/{}",
            in_names.len(),
            net.output_count(),
            mapped.input_names.len(),
            mapped.outputs.len()
        ));
    }
    // mapped input k carries network input in_of[k].
    let mut in_of = Vec::with_capacity(in_names.len());
    for name in &mapped.input_names {
        let Some(i) = in_names.iter().position(|n| n == name) else {
            return Err(format!("mapped input `{name}` is not a network input"));
        };
        in_of.push(i);
    }
    let mut out_of = Vec::with_capacity(mapped.outputs.len());
    for (name, _) in &mapped.outputs {
        let Some(o) = net.outputs().iter().position(|o| &o.name == name) else {
            return Err(format!("mapped output `{name}` is not a network output"));
        };
        out_of.push(o);
    }
    let n = in_names.len();
    let exhaustive = n <= EXHAUSTIVE_INPUTS;
    let words = if exhaustive { (1usize << n).div_ceil(64) } else { VECTORS / 64 };
    let mut rng = XorShift64::new(seed ^ 0xE0_1CE5);
    for w in 0..words {
        let ins: Vec<u64> = (0..n)
            .map(|i| if exhaustive { exhaustive_word(i, w) } else { rng.next_u64() })
            .collect();
        let want = simulate_network64(net, &ins);
        let mapped_ins: Vec<u64> = in_of.iter().map(|&i| ins[i]).collect();
        let got = mapped.simulate64(lib, &mapped_ins);
        let lanes = if exhaustive && n < 6 { (1u64 << (1usize << n)) - 1 } else { u64::MAX };
        for (k, &o) in out_of.iter().enumerate() {
            if (want[o] ^ got[k]) & lanes != 0 {
                return Err(format!(
                    "output `{}` differs from the input network on vector word {w}",
                    mapped.outputs[k].0
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_core::flow::run_flow;

    #[test]
    fn a_flow_result_passes_and_a_rewired_output_fails() {
        let lib = Library::big();
        let net = lily_workloads::circuits::circuit("misex1");
        let options = FlowOptions::lily_area();
        let result = run_flow(&net, &lib, &options).expect("misex1 maps");
        assert_eq!(check_result(&net, &result.mapped, &lib, &options, 1), Ok(()));
        let mut broken = result.mapped.clone();
        let first = broken.outputs[0].1;
        let other = broken.outputs.iter().map(|o| o.1).find(|&s| s != first).expect("two drivers");
        broken.outputs[0].1 = other;
        assert!(check_result(&net, &broken, &lib, &options, 1).is_err());
    }
}
