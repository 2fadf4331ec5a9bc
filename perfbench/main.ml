(* The repository benchmark. One process runs one workload for a given
   time, checks every answer, and prints its result as the last line of
   standard output:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV] [--spans FILE]

   A run repeats rounds (set-up, main phase, read-back, checks) until its
   time is used, at least [min_rounds] of them. It reports set-up as a
   median and every other time as a sum of per-unit medians
   (Wl.robust_total), both at the reference speed of Calib. With --trace 1
   it alternates untraced and traced rounds instead: the traced ones
   enable the engine's telemetry and record spans around every layer call,
   and the run reports per-layer values plus the tracing overhead. *)

open Perfbench
module E = Egglog
module J = E.Telemetry.Json

let min_rounds = 3

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline Cli.usage;
  exit 2

(* ---- one round, dispatched by workload ---- *)

type runner = { round : int -> Wl.ctx -> unit; answer_parts : string list }

let with_runner (a : Cli.args) f =
  match a.workload with
  | "math-eqsat" ->
    let st = Wl_math.prepare ~seed:a.seed in
    f { round = (fun _ ctx -> Wl_math.round ctx st); answer_parts = Wl_math.answer_parts }
  | "pointsto-batch" ->
    let st = Wl_pointsto.prepare ~size:Wl_pointsto.batch_size ~seed:a.seed in
    f { round = (fun _ ctx -> Wl_pointsto.batch_round ctx st); answer_parts = Wl_pointsto.answer_parts }
  | "herbie-sound" ->
    let st = Wl_herbie.prepare ~seed:a.seed in
    f { round = (fun _ ctx -> Wl_herbie.round ctx st); answer_parts = Wl_herbie.answer_parts }
  | "pointsto-stream" ->
    let st = Wl_pointsto.prepare ~size:Wl_pointsto.stream_size ~seed:a.seed in
    Wl_pointsto.with_stream_server (fun srv ->
        f
          {
            round = (fun i ctx -> Wl_pointsto.stream_round srv i ctx st);
            answer_parts = Wl_pointsto.answer_parts;
          })
  | w -> usage ("unknown workload " ^ w)

let new_ctx ledger =
  { Wl.ledger; samples = Hashtbl.create 16; units = Hashtbl.create 256; layer = Hashtbl.create 64 }

(* Merge one round's samples into the run's. *)
let absorb (into : Wl.ctx) (ctx : Wl.ctx) =
  Hashtbl.iter (fun k vs -> List.iter (Wl.sample into k) (List.rev vs)) ctx.samples;
  Hashtbl.iter (fun (k, i) vs -> List.iter (Wl.unit_sample into k i) (List.rev vs)) ctx.units

(* The same for the round's end-to-end times, brought to the reference
   speed (see Calib). *)
let absorb_calibrated (into : Wl.ctx) (ctx : Wl.ctx) f =
  List.iter (fun v -> Wl.sample into "setup_s" (v *. f)) (List.rev (Wl.samples ctx "setup_s"));
  Hashtbl.iter (fun (k, i) vs -> List.iter (fun v -> Wl.unit_sample into k i (v *. f)) (List.rev vs)) ctx.units

(* Peak resident memory of the process, daemon domain included, from the
   kernel's high-water mark. The GC's top_heap_words is no substitute under
   OCaml 5.1: it can drop once the daemon's domain has exited. It is read
   after the first round, which is one use of the workload: OCaml 5.1
   does not compact, so the heap keeps growing a little with every later
   round and the mark would depend on how many rounds fit in the run. *)
let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc/self/status"

(* ---- per-layer values from a traced round ---- *)

(* Counters that depend on scheduling or on the GC rather than on the
   input; they are reported but not required to repeat. *)
let unsteady_counters = [ "pool.steals"; "memory.top_heap_bytes" ]

let counter snap name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.E.Telemetry.sn_counters))

let timing_total snap name =
  match List.assoc_opt name snap.E.Telemetry.sn_timings with
  | Some t -> t.E.Telemetry.t_total
  | None -> 0.0

let timing_count snap name =
  match List.assoc_opt name snap.E.Telemetry.sn_timings with
  | Some t -> t.E.Telemetry.t_count
  | None -> 0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer metric, with its unit, in the order printed. A metric
   of a layer a workload never calls reads 0. *)
let self_spans =
  [
    "frontend.parse"; "engine.create"; "engine.load"; "pointsto.load"; "engine.search";
    "engine.apply"; "engine.rebuild"; "extract"; "readback"; "herbie.improve"; "server.rpc";
  ]

let layer_metrics =
  [
    ("frontend.parse_s", "s"); ("setup.per_fact_us", "us"); ("server.overhead_s", "s");
    ("search_s", "s"); ("apply_s", "s"); ("rebuild_s", "s"); ("extract_s", "s");
    ("extract.calls", "count"); ("readback_s", "s"); ("herbie.score_s", "s");
    ("join.tuples_scanned", "count"); ("join.matches_yielded", "count");
    ("join.scan_per_match", "ratio"); ("join.plans_built", "count"); ("join.replans", "count");
    ("join.compiled_plans", "count"); ("join.interp_fallbacks", "count");
    ("join.trie_builds", "count"); ("join.index_builds", "count"); ("join.index_patched", "count");
    ("join.cache_hit_ratio", "ratio"); ("engine.matches_applied", "count");
    ("apply.dedup_ratio", "ratio"); ("apply.staged_commits", "count");
    ("apply.fallback_ratio", "ratio"); ("rebuild.rounds", "count");
    ("rebuild.tuples_canonicalized", "count"); ("db.unions", "count");
    ("search.domains_used", "count"); ("apply.domains_used", "count");
    ("rebuild.domains_used", "count"); ("pool.tasks", "count"); ("pool.steals", "count");
    ("engine.iterations", "count"); ("scheduler.bans", "count"); ("rows", "count");
    ("classes", "count"); ("memory.modeled_bytes_peak", "bytes");
    ("memory.top_heap_bytes", "bytes"); ("server.request_p50_ms", "ms"); ("client.wait_ms", "ms");
    ("server.error_replies", "count"); ("req_p50_ms", "ms"); ("req_p95_ms", "ms");
    ("req_per_s", "1/s"); ("bits_error_mean", "bits"); ("herbie.test_regressions", "count");
  ]
  @ List.map (fun n -> ("self." ^ n ^ "_s", "s")) self_spans
  @ [ ("trace.overhead_frac", "ratio") ]

(* Values computed from a traced round's telemetry snapshot rather than
   recorded directly by the workload. *)
let derived snap (ctx : Wl.ctx) =
  let c = counter snap in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt ctx.layer k) in
  let server_s = timing_total snap "server.request" in
  let server_n = float_of_int (timing_count snap "server.request") in
  let server_p50 =
    match List.assoc_opt "server.request_s" snap.E.Telemetry.sn_hists with
    | Some h -> E.Telemetry.hist_snap_quantile h 0.5 *. 1000.0
    | None -> 0.0
  in
  (* Workloads that call Engine.run_iterations record its phase split;
     elsewhere (inside improve, inside the daemon) the engine's own phase
     timings stand in. *)
  let phase name timing =
    (name, match Hashtbl.find_opt ctx.layer name with Some v -> v | None -> timing_total snap timing)
  in
  [
    phase "search_s" "engine.search";
    phase "apply_s" "engine.apply";
    phase "rebuild_s" "engine.rebuild";
    ("join.scan_per_match", ratio (c "join.tuples_scanned") (c "join.matches_yielded"));
    ("join.cache_hit_ratio", ratio (c "join.cache_hits") (c "join.cache_lookups"));
    ("apply.dedup_ratio", ratio (c "engine.matches_deduplicated") (c "engine.matches_applied"));
    ( "apply.fallback_ratio",
      ratio (c "apply.staged_fallbacks") (c "apply.staged_commits" +. c "apply.staged_fallbacks") );
    ("herbie.score_s", timing_total snap "herbie.improve" -. timing_total snap "herbie.saturate");
    ( "server.overhead_s",
      if server_n = 0.0 then 0.0 else server_s -. timing_total snap "engine.iteration" );
    ("server.request_p50_ms", server_p50);
    ("client.wait_ms", if server_n = 0.0 then 0.0 else (get "client.rpc_s" -. server_s) /. server_n *. 1000.0);
  ]

(* ---- the run ---- *)

let summarize name xs =
  match xs with
  | [] -> Printf.sprintf "%s: no samples" name
  | xs -> (
    let base = Printf.sprintf "%s: median %.6g over %d" name (Stats.median xs) (List.length xs) in
    match Stats.tail xs with
    | Some t -> Printf.sprintf "%s, p%.1f %.6g (10 beyond)" base t.t_pct t.t_value
    | None -> base)

let stamp (a : Cli.args) =
  J.Obj
    [
      ("workload", J.Str a.workload);
      ("seed", J.Int a.seed);
      ("seconds", J.Float a.seconds);
      ("trace", J.Bool a.trace);
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("rev", J.Str a.rev);
    ]

let metric v unit = J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]

(* Request latency and rate where a workload has requests: daemon round
   trips on pointsto-stream, one improve call per bench on herbie-sound.
   p95 is reported only when at least ten samples lie beyond it. *)
let req_metrics (run : Wl.ctx) =
  match Wl.samples run "req_ms" with
  | [] -> []
  | xs ->
    [
      ("req_p50_ms", Stats.median xs);
      ("req_p95_ms", if Stats.supported xs 95.0 then Stats.percentile xs 95.0 else 0.0);
      (* every request is one unit of run_s *)
      ( "req_per_s",
        let n = Hashtbl.fold (fun (k, _) _ n -> if k = "run_s" then n + 1 else n) run.units 0 in
        ratio (float_of_int n) (Wl.robust_total run "run_s") );
    ]

type traced = { t_ctx : Wl.ctx; t_snap : E.Telemetry.snapshot; t_spans : Spans.span list }

let main (a : Cli.args) =
  let ledger = Stats.ledger () in
  let run = new_ctx ledger in
  let calibrated = new_ctx ledger and kernel_s = ref [] and peak_rss = ref 0.0 in
  let first = ref None in
  let traced_round_s = ref [] and untraced_round_s = ref [] in
  let t_start = Wl.now () in
  let rounds = ref 0 in
  let steady (snap : E.Telemetry.snapshot) =
    List.filter (fun (n, _) -> not (List.mem n unsteady_counters)) snap.sn_counters
  in
  let answer_parts =
  with_runner a (fun runner ->
      let one ~traced =
        let ctx = new_ctx ledger in
        if traced then begin
          E.Telemetry.reset ();
          E.Telemetry.enable ();
          Spans.clear ();
          Spans.enabled := true
        end;
        let before = if traced then 0.0 else Calib.measure () in
        let t0 = Wl.now () in
        Fun.protect
          ~finally:(fun () ->
            Spans.enabled := false;
            E.Telemetry.disable ())
          (fun () -> runner.round !rounds ctx);
        let dt = Wl.now () -. t0 in
        incr rounds;
        if not traced then begin
          untraced_round_s := dt :: !untraced_round_s;
          absorb run ctx;
          if !peak_rss = 0.0 then peak_rss := peak_rss_mb ();
          let after = Calib.measure () in
          kernel_s := before :: after :: !kernel_s;
          absorb_calibrated calibrated ctx (Calib.factor ~before ~after)
        end
        else begin
          traced_round_s := dt :: !traced_round_s;
          let snap = E.Telemetry.snapshot () in
          match !first with
          | None -> first := Some { t_ctx = ctx; t_snap = snap; t_spans = Spans.all () }
          | Some f ->
            (* the engine's counters are a function of the input alone *)
            Stats.attempt ledger (fun () ->
                Wl.check (steady f.t_snap = steady snap) "trace: counters differ between traced rounds")
        end
      in
      let elapsed () = Wl.now () -. t_start in
      if a.trace then begin
        one ~traced:false;
        one ~traced:true;
        while elapsed () < a.seconds do
          one ~traced:false;
          one ~traced:true
        done
      end
      else
        while !rounds < min_rounds || elapsed () < a.seconds do
          one ~traced:false
        done;
      runner.answer_parts)
  in
  print_endline (J.to_string (J.Obj [ ("stamp", stamp a) ]));
  let med ctx k = match Wl.samples ctx k with [] -> 0.0 | xs -> Stats.median xs in
  let answer ctx =
    List.fold_left
      (fun acc k -> acc +. if k = "setup_s" then med ctx k else Wl.robust_total ctx k)
      0.0 answer_parts
  in
  Printf.printf "%d rounds\n" !rounds;
  List.iter (fun k -> print_endline (summarize k (Wl.samples run k))) [ "setup_s"; "req_ms"; "bits_error_mean" ];
  List.iter
    (fun k ->
      Printf.printf "%s: %.6g measured, %.6g at reference speed (sum over units of their median)\n" k
        (Wl.robust_total run k) (Wl.robust_total calibrated k))
    [ "run_s"; "extract_s"; "readback_s" ];
  Printf.printf "answer_s: %.6g measured, %.6g at reference speed\n" (answer run) (answer calibrated);
  if !kernel_s <> [] then
    Printf.printf "calibration kernel: median %.6g s over %d, reference %g s\n" (Stats.median !kernel_s)
      (List.length !kernel_s) Calib.reference_s;
  Printf.printf "fail_frac: %g (%d of %d operations failed)\n" (Stats.fail_frac ledger)
    ledger.failed ledger.attempted;
  Option.iter (Printf.printf "first failure: %s\n") ledger.first_error;
  let metrics =
    match !first with
    | None ->
      [
        ("setup_s", metric (med calibrated "setup_s") "s");
        ("run_s", metric (Wl.robust_total calibrated "run_s") "s");
        ("answer_s", metric (answer calibrated) "s");
        ("peak_rss_mb", metric !peak_rss "MB");
      ]
    | Some f ->
      let values = Hashtbl.copy f.t_ctx.layer in
      let set (n, v) = Hashtbl.replace values n v in
      List.iter (fun (n, v) -> set (n, float_of_int v)) f.t_snap.sn_counters;
      List.iter set (derived f.t_snap f.t_ctx);
      List.iter (fun (n, v) -> set ("self." ^ n ^ "_s", v)) (Spans.self_times f.t_spans);
      List.iter set (req_metrics run);
      set ("bits_error_mean", med run "bits_error_mean");
      set
        ( "trace.overhead_frac",
          ratio (Stats.median !traced_round_s) (Stats.median !untraced_round_s) -. 1.0 );
      Option.iter
        (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc (Spans.to_jsonl f.t_spans)))
        a.spans;
      List.map
        (fun (n, u) -> (n, metric (Option.value ~default:0.0 (Hashtbl.find_opt values n)) u))
        layer_metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (ledger.failed = 0));
            ("attempted", J.Int ledger.attempted);
            ("failed", J.Int ledger.failed);
            ("metrics", J.Obj metrics);
          ]))

let () =
  match Cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Ok a -> main a
  | Error msg -> usage msg
