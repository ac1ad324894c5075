//! Diagnostic harness for the OVS training pipeline (not a paper
//! experiment; kept for development and regression hunting).

use datagen::{Dataset, TodPattern};
use eval::harness::DatasetInput;
use eval::metrics::evaluate_tod;
use ovs_core::estimator::matrix_to_tod;
use ovs_core::trainer::{OvsTrainer, RunOptions};

fn main() {
    let profile = bench::Profile::from_env();
    let ds = Dataset::synthetic(TodPattern::Gaussian, &profile.spec).unwrap();
    let owned = DatasetInput::new(&ds);
    let input = owned.input(&ds, false);

    let gt_mean = ds.groundtruth_tod.total() / ds.groundtruth_tod.as_slice().len() as f64;
    let gt_max = ds
        .groundtruth_tod
        .as_slice()
        .iter()
        .fold(0.0f64, |a, &b| a.max(b));
    println!("groundtruth TOD: mean {gt_mean:.2}, max {gt_max:.2}");
    let obs_mean = ds.observed_speed.total() / ds.observed_speed.as_slice().len() as f64;
    println!("observed speed: mean {obs_mean:.2}");

    let cfg = profile.ovs.clone();
    println!(
        "cfg: g_max={}, epochs {}/{}/{}",
        cfg.g_max, cfg.epochs_v2s, cfg.epochs_tod2v, cfg.epochs_fit
    );
    let trainer = OvsTrainer::new(cfg);
    let (mut model, report) = trainer.run(&input, RunOptions::default()).unwrap();
    let trace = |name: &str, l: &[f64]| {
        println!(
            "{name} loss: {:.4} -> {:.4} (min {:.4})",
            l[0],
            l.last().unwrap(),
            l.iter().cloned().fold(f64::INFINITY, f64::min)
        );
    };
    trace("stage1 v2s", &report.v2s_losses);
    trace("stage2 tod2v", &report.tod2v_losses);
    trace("stage3 fit", &report.fit_losses);

    // Stage-2 decomposition on the first training sample.
    {
        use ovs_core::estimator::{link_to_matrix, tod_to_matrix};
        let sample = &input.train[0];
        let g = tod_to_matrix(&sample.tod);
        let q_target = link_to_matrix(&sample.volume);
        let v_target = link_to_matrix(&sample.speed);
        let mut ws = neural::Workspace::new();
        let q_pred = model.tod2v.forward_ws(&g, &mut ws);
        let v_pred_model = model.v2s.forward_ws(&q_pred, &mut ws);
        let v_pred_truevol = model.v2s.forward_ws(&q_target, &mut ws);
        let rmse = |a: &neural::Matrix, b: &neural::Matrix| {
            let mut s = 0.0;
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                s += (x - y) * (x - y);
            }
            (s / a.len() as f64).sqrt()
        };
        println!("sample0 volume scale: mean {:.1}", q_target.mean());
        // Structural optimum: assign each route's counts to its links at
        // exactly the free-flow delay (no attention, no learning).
        {
            let routes = model.tod2v.routes();
            let t = g.cols();
            let mut q_delta = neural::Matrix::zeros(q_target.rows(), t);
            for j in 0..q_target.rows() {
                for inc in routes.incident(roadnet::LinkId(j)) {
                    for ti in 0..t {
                        if ti >= inc.delay_intervals {
                            let v = q_delta.get(j, ti)
                                + g.get(inc.od.index(), ti - inc.delay_intervals);
                            q_delta.set(j, ti, v);
                        }
                    }
                }
            }
            println!(
                "sample0 q_delta vs q_target RMSE: {:.2}",
                rmse(&q_delta, &q_target)
            );
        }
        println!(
            "sample0 q_pred vs q_target RMSE: {:.2}",
            rmse(&q_pred, &q_target)
        );
        println!(
            "sample0 v(model q) vs v_target RMSE: {:.2}",
            rmse(&v_pred_model, &v_target)
        );
        println!(
            "sample0 v(true q) vs v_target RMSE: {:.2}",
            rmse(&v_pred_truevol, &v_target)
        );
    }

    let rec = model.recovered_tod();
    println!(
        "recovered TOD: mean {:.2}, max {:.2}",
        rec.mean(),
        rec.as_slice().iter().fold(0.0f64, |a, &b| a.max(b))
    );
    let tod = matrix_to_tod(&rec);
    let r = evaluate_tod(&ds, &tod).unwrap();
    println!(
        "RMSE: tod {:.2}, vol {:.2}, speed {:.3}",
        r.tod, r.volume, r.speed
    );
}
