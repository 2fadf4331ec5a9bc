(* Tests of the benchmark's own code: the percentile rule, the failure
   ledger behind fail_frac, span self times and the seed plumbing. *)

open Perfbench

let floats = Alcotest.(float 1e-12)
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check floats "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check floats "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check floats "single" 7.0 (Stats.median [ 7.0 ])

let test_tail () =
  (* ten samples leave no percentile with ten beyond it *)
  Alcotest.(check bool) "n=10" true (Stats.tail (range 10) = None);
  (match Stats.tail (range 11) with
   | Some t ->
     Alcotest.check floats "n=11 value" 1.0 t.t_value;
     Alcotest.(check int) "n=11 samples" 11 t.t_samples
   | None -> Alcotest.fail "n=11 has a tail");
  (* 200 samples: p95 is the highest percentile with ten beyond *)
  (match Stats.tail (List.rev (range 200)) with
   | Some t ->
     Alcotest.check floats "n=200 pct" 95.0 t.t_pct;
     Alcotest.check floats "n=200 value" 190.0 t.t_value
   | None -> Alcotest.fail "n=200 has a tail");
  match Stats.tail (range 1000) with
  | Some t -> Alcotest.check floats "n=1000 pct" 99.0 t.t_pct
  | None -> Alcotest.fail "n=1000 has a tail"

let test_percentile () =
  Alcotest.check floats "p95 of 200" 190.0 (Stats.percentile (range 200) 95.0);
  Alcotest.check floats "p50 of 4" 2.0 (Stats.percentile (range 4) 50.0);
  Alcotest.(check bool) "p95 needs 200 samples" false (Stats.supported (range 199) 95.0);
  Alcotest.(check bool) "p95 with 200 samples" true (Stats.supported (range 200) 95.0);
  (* the rule and the fixed percentile agree where both apply *)
  match Stats.tail (range 200) with
  | Some t -> Alcotest.check floats "tail = p95" (Stats.percentile (range 200) 95.0) t.t_value
  | None -> Alcotest.fail "n=200 has a tail"

let test_ledger () =
  let l = Stats.ledger () in
  Alcotest.check floats "empty" 0.0 (Stats.fail_frac l);
  Stats.attempt l (fun () -> Ok ());
  Stats.attempt l (fun () -> Error "wrong answer");
  Stats.attempt l (fun () -> failwith "raised");
  Stats.attempt l (fun () -> Ok ());
  Alcotest.(check int) "attempted" 4 l.attempted;
  Alcotest.(check int) "failed" 2 l.failed;
  Alcotest.check floats "fail_frac" 0.5 (Stats.fail_frac l);
  Alcotest.(check (option string)) "first error kept" (Some "wrong answer") l.first_error

let test_self_times () =
  let open Spans in
  let ss =
    [
      { id = 1; name = "run"; parent = 0; start = 0.0; stop = 10.0 };
      { id = 2; name = "search"; parent = 1; start = 1.0; stop = 4.0 };
      { id = 3; name = "apply"; parent = 1; start = 4.0; stop = 6.0 };
      { id = 4; name = "search"; parent = 1; start = 6.0; stop = 7.0 };
    ]
  in
  let self = self_times ss in
  Alcotest.check floats "run" 4.0 (List.assoc "run" self);
  Alcotest.check floats "search" 4.0 (List.assoc "search" self);
  Alcotest.check floats "apply" 2.0 (List.assoc "apply" self)

(* Times between two kernel runs are brought to the reference speed. *)
let test_calibration () =
  Alcotest.check floats "host at reference speed" 1.0
    (Calib.factor ~before:Calib.reference_s ~after:Calib.reference_s);
  Alcotest.check floats "host twice as slow" 0.5
    (Calib.factor ~before:(2.0 *. Calib.reference_s) ~after:(2.0 *. Calib.reference_s))

let test_cli () =
  let argv seed = [ "--workload"; "pointsto-batch"; "--seed"; seed; "--seconds"; "5"; "--trace"; "1" ] in
  (match Cli.parse (argv "42") with
   | Ok a ->
     Alcotest.(check int) "seed" 42 a.seed;
     Alcotest.(check bool) "trace" true a.trace;
     Alcotest.check floats "seconds" 5.0 a.seconds
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bad seed" true (Result.is_error (Cli.parse (argv "x")));
  Alcotest.(check bool) "bad workload" true
    (Result.is_error (Cli.parse [ "--workload"; "nope"; "--seed"; "1"; "--seconds"; "1"; "--trace"; "0" ]))

(* The seed alone decides the generated program and its reference answer. *)
let test_seed () =
  let a = Wl_pointsto.prepare ~size:30 ~seed:7 and b = Wl_pointsto.prepare ~size:30 ~seed:7 in
  let c = Wl_pointsto.prepare ~size:30 ~seed:8 in
  Alcotest.(check bool) "same seed, same program" true (a.prog = b.prog);
  Alcotest.(check bool) "same seed, same answer" true
    (Array.init a.prog.n_vars (Wl_pointsto.sites_of a.expected)
    = Array.init b.prog.n_vars (Wl_pointsto.sites_of b.expected));
  Alcotest.(check bool) "other seed, other program" false (a.prog = c.prog)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "fixed percentile" `Quick test_percentile;
          Alcotest.test_case "fail_frac ledger" `Quick test_ledger;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_times ]);
      ("calibration", [ Alcotest.test_case "reference speed" `Quick test_calibration ]);
      ( "seed",
        [
          Alcotest.test_case "cli" `Quick test_cli;
          Alcotest.test_case "seed decides inputs" `Quick test_seed;
        ] );
    ]
