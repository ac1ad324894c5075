//! Tables IV and V: network structure and hyperparameters of OVS.
//!
//! Run: `cargo run -p bench --bin table04_config`

use ovs_core::OvsConfig;

fn print_cfg(label: &str, c: &OvsConfig) {
    println!("== {label} ==");
    println!(
        "TOD Generation    : FC({h}) sigmoid, FC(T) sigmoid, scale g_max={g}",
        h = c.tod_hidden,
        g = c.g_max
    );
    println!(
        "TOD-Volume        : OD-Route {} | Route-e Conv1x3({ch}) ReLU x2 | e-alpha FC(W={w})+Softmax(+sink)",
        if c.od_route_fc { "FC" } else { "identity (single-route, SS IV-C)" },
        ch = c.conv_channels,
        w = c.attention_window
    );
    println!(
        "Volume-Speed      : LSTM({h}) x2, FC(1), sigmoid, v_max={v}",
        h = c.lstm_hidden,
        v = c.v_max
    );
    println!("learning rate     : {}", c.lr);
    println!(
        "epochs (s1/s2/fit): {}/{}/{}",
        c.epochs_v2s, c.epochs_tod2v, c.epochs_fit
    );
    println!("fit restarts      : {}", c.fit_restarts);
    println!("prior weight      : {}", c.w_prior);
    println!();
}

fn main() {
    println!("# table04: OVS network structure & hyperparameters (paper Tables IV-V)");
    print_cfg("paper profile (Table IV/V verbatim)", &OvsConfig::paper());
    print_cfg(
        "default profile (used by the experiment binaries)",
        &OvsConfig::default(),
    );
}
