//! `mpilctl simulate` — one static insert/lookup campaign (the paper's
//! Section 6.1 methodology at user-chosen parameters).

use mpil::{MpilConfig, StaticEngine};
use mpil_id::Id;
use mpil_overlay::NodeIdx;
use mpil_workload::{Args, RunningStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::CliError;

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError`] on unknown families, invalid MPIL parameters or a flag it
/// cannot read.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (family, source, nodes) = super::read_family(args, "regular")?;
    let ops = args.try_value_in("ops", 1..)?.unwrap_or(100usize);
    let max_flows = args.try_value("max-flows")?.unwrap_or(10u32);
    let replicas = args.try_value("replicas")?.unwrap_or(5u32);
    let seed = args.try_value("seed")?.unwrap_or(42u64);
    let ds = !args.flag("no-ds");
    args.finish()?;

    let Some(topo) = source.generate(nodes, seed) else {
        return Err(CliError(format!(
            "--family {family}: a structured overlay; simulate runs on a generated graph"
        )));
    };
    let topo = topo.map_err(|e| CliError(format!("overlay generation failed: {e}")))?;
    let config = MpilConfig::default()
        .with_max_flows(max_flows)
        .with_num_replicas(replicas)
        .with_duplicate_suppression(ds);
    config
        .validate()
        .map_err(|e| CliError(format!("invalid MPIL parameters: {e}")))?;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
    let mut engine = StaticEngine::new(&topo, config, seed);
    let mut rep = RunningStats::new();
    let mut ins_traffic = RunningStats::new();
    let mut ok = 0usize;
    let mut hops = RunningStats::new();
    let mut look_traffic = RunningStats::new();
    for _ in 0..ops {
        let object = Id::random(&mut rng);
        let a = NodeIdx::new(rng.gen_range(0..nodes as u32));
        let b = NodeIdx::new(rng.gen_range(0..nodes as u32));
        let ins = engine.insert(a, object);
        rep.push(f64::from(ins.replicas));
        ins_traffic.push(ins.messages as f64);
        let look = engine.lookup(b, object);
        look_traffic.push(look.messages as f64);
        if look.success {
            ok += 1;
            if let Some(h) = look.first_reply_hops {
                hops.push(f64::from(h));
            }
        }
    }
    Ok(format!(
        "{family} overlay, {nodes} nodes; {ops} insert/lookup pairs; \
         max_flows={max_flows}, per-flow replicas={replicas}, DS={}\n\
         lookup success        = {:.1}%\n\
         replicas per insert   = {:.1} (bound {})\n\
         insert traffic        = {:.1} msgs\n\
         lookup traffic        = {:.1} msgs\n\
         first-reply latency   = {:.2} hops\n",
        ds,
        100.0 * ok as f64 / ops as f64,
        rep.mean(),
        max_flows * replicas,
        ins_traffic.mean(),
        look_traffic.mean(),
        hops.mean(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::args;

    #[test]
    fn random_overlay_campaign_succeeds() {
        let out = run(&args("--family regular --nodes 200 --degree 12 --ops 20")).expect("ok");
        assert!(out.contains("lookup success"), "got:\n{out}");
        // r=5, f=10 gives 100% in the paper's Tables 1-2 at any size.
        assert!(out.contains("= 100.0%"), "got:\n{out}");
    }

    #[test]
    fn bad_mpil_parameters_are_an_error() {
        assert!(run(&args("--max-flows 0 --replicas 0 --nodes 50 --ops 1")).is_err());
    }
}
