//! Checks of the benchmark itself, on inputs small enough for debug builds.

use super::*;
use fastt_cluster::Topology;
use fastt_models::Model;
use workload::{FleetSpec, Net, SessionSpec};

fn tiny(w: Workload) -> Inputs {
    let topo = Topology::multi_server(1, 2);
    match w {
        Workload::Paper1Server | Workload::Paper2Server => Inputs::Sessions(vec![SessionSpec {
            net: Net::Paper(Model::LeNet),
            topo,
            per_replica: 32,
        }]),
        Workload::DeepStack => Inputs::Sessions(vec![SessionSpec {
            net: Net::Stack(2),
            topo,
            per_replica: 64,
        }]),
        Workload::Fleet => Inputs::Fleet(Box::new(FleetSpec {
            topo: Topology::multi_server(2, 4),
            templates: vec![
                (Net::Paper(Model::LeNet), 32),
                (Net::Paper(Model::LeNet), 16),
            ],
            streams: 1,
        })),
    }
}

fn child(kind: &str, w: Workload) -> Value {
    child_json(kind, w.name(), &tiny(w), 7).expect("known child kind")
}

#[test]
fn workload_names_match_benchmark_json() {
    let spec = Spec::load();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, spec.workloads);
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn tiny_runs_report_every_metric_without_errors() {
    let spec = Spec::load();
    for w in [Workload::Paper1Server, Workload::DeepStack, Workload::Fleet] {
        // The untraced run: one set-up and two passes.
        let mut r = RunResult::new(w, 7, false);
        let setup = child("setup", w);
        r.absorb(&setup);
        r.sample("setup_s", setup["setup_s"].as_f64());
        let passes = [child("pass", w), child("pass", w)];
        for p in &passes {
            r.absorb(p);
            for m in &spec.end_to_end {
                r.sample(&m.name, p[m.name.as_str()].as_f64());
            }
        }
        r.check(
            "repeat",
            passes[0]["fingerprint"] == passes[1]["fingerprint"],
        );
        r.finish(&spec.end_to_end);
        assert!(r.correct(), "{}: {:?}", w.name(), r.failures);
        assert!(r.attempted > 0);
        assert!(r.metrics.iter().all(|(_, v)| *v > 0.0), "{:?}", r.metrics);

        // The traced run: every per-layer metric, and nothing else.
        let mut t = RunResult::new(w, 7, true);
        let children = [child("pass", w), child("traced", w), child("layers", w)];
        for c in &children {
            t.absorb(c);
        }
        let [untraced, traced, layers] = &children;
        t.add_layers(untraced, traced, layers, w == Workload::Fleet);
        t.finish(&spec.per_layer);
        assert!(t.correct(), "{}: {:?}", w.name(), t.failures);
        for name in t.samples.keys() {
            assert!(
                spec.per_layer.iter().any(|m| &m.name == name),
                "{name} is not in BENCHMARK.json"
            );
        }
        assert!(traced["spans"].as_array().is_some_and(|s| !s.is_empty()));
        assert!(layers["spans"].as_array().is_some_and(|s| !s.is_empty()));
    }
}

#[test]
fn inputs_are_deterministic_and_the_seed_changes_the_fleet() {
    for w in Workload::ALL {
        assert_eq!(format!("{:?}", w.inputs()), format!("{:?}", w.inputs()));
    }
    let Inputs::Fleet(spec) = tiny(Workload::Fleet) else {
        unreachable!()
    };
    let templates = spec.build_templates();
    let render = |seed: u64| {
        spec.job_streams(seed, &templates)
            .iter()
            .flat_map(|(s, jobs)| {
                jobs.iter().map(move |j| {
                    format!(
                        "{s} {} {} {} {} {} {} {:?}",
                        j.name, j.arrival, j.iters, j.gpus, j.min_gpus, j.priority, j.deadline
                    )
                })
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(render(7), render(7));
    assert_ne!(render(7), render(8));
}

#[test]
fn options_parse_the_single_workload_form() {
    let args: Vec<String> = "--workload fleet --seed 3 --seconds 12 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let o = parse_options(&args).expect("valid options");
    assert_eq!(o.workloads, vec![Workload::Fleet]);
    assert_eq!((o.seed, o.seconds, o.trace), (3, 12.0, true));
    for bad in ["--workload nope", "--trace 2", "--seconds 0", "--seed"] {
        let args: Vec<String> = bad.split(' ').map(String::from).collect();
        assert!(parse_options(&args).is_err(), "{bad}");
    }
}
