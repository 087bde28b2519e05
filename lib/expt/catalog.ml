let experiments =
  [ ("table1-ack", fun () -> ignore (Exp_ack.run ()));
    ("fig1-progress-lb", fun () -> ignore (Exp_progress_lb.run ()));
    ( "table1-approg",
      fun () ->
        ignore (Exp_approg.run_density ());
        ignore (Exp_approg.run_eps ()) );
    ("thm8-decay", fun () -> ignore (Exp_decay_lb.run ()));
    ( "table2-smb",
      fun () ->
        ignore (Exp_smb.run_diameter ());
        ignore (Exp_smb.run_lambda ());
        ignore (Exp_smb.run_size ()) );
    ("table1-mmb", fun () -> ignore (Exp_mmb.run ()));
    ( "table1-cons",
      fun () ->
        ignore (Exp_cons.run ());
        ignore (Exp_cons.run_crashes ()) );
    ("ablation", fun () -> ignore (Exp_ablation.run ()));
    ("mac-compare", fun () -> ignore (Exp_mac_compare.run ()));
    ("capacity", fun () -> ignore (Exp_capacity.run ()));
    ("chaos", fun () -> ignore (Exp_chaos.run ~out:"BENCH_chaos.json" ())) ]
