(* math-eqsat: Fig. 7's program (egg's math suite) under semi-naive
   evaluation and the BackOff scheduler for a fixed number of iterations,
   then extraction of the cheapest term of every seed. Search dominates the
   run; extraction is the other large cost. The input is fixed, so the
   benchmark's seed does not change it. *)

module E = Egglog

let iterations = 35

(* Deterministic size of the saturated e-graph at 35 iterations: total rows
   and matches applied. Any change of these is a change of semantics. *)
let expected_rows = 59_400
let expected_matches = 43_335

let n_seeds = List.length Math_suite.seeds
let seed_name i = Printf.sprintf "seed%d" i

type state = { program : string }

let prepare ~seed:_ = { program = Math_suite.egglog_program () }

let term_string t = Sexpr.to_string (E.Extract.term_to_sexp t)

(* Set-up takes about a millisecond, so each round repeats it and keeps
   the last engine; set-up samples are reported as a median. *)
let setups_per_round = 5

(* The time to an answer: set-up, saturation, extraction. *)
let answer_parts = [ "setup_s"; "run_s"; "extract_s" ]

let setup (ctx : Wl.ctx) st =
  let setup_s, eng =
    Wl.timed "setup" (fun () ->
        let eng =
          Spans.with_span "engine.create" (fun () ->
              E.Engine.create ~seminaive:true ~scheduler:E.Engine.backoff_default ~jobs:1 ())
        in
        let parse_s, cmds = Wl.timed "frontend.parse" (fun () -> E.Frontend.parse_program st.program) in
        Wl.layer ctx "frontend.parse_s" parse_s;
        ignore (Spans.with_span "engine.load" (fun () -> E.Engine.run_program eng cmds));
        eng)
  in
  Wl.sample ctx "setup_s" setup_s;
  eng

let round (ctx : Wl.ctx) st =
  for _ = 2 to setups_per_round do
    ignore (setup ctx st)
  done;
  let eng = setup ctx st in
  (* Seed costs before saturation are the upper bound every extracted term
     must meet; read outside any timed region. *)
  let seed_value i = E.Engine.eval_call eng (seed_name i) [] in
  let before =
    List.init n_seeds (fun i ->
        match E.Engine.extract_value eng (seed_value i) with Some r -> r.cost | None -> max_int)
  in
  let _, report =
    Wl.timed "engine.run" (fun () ->
        let start = Wl.now () in
        let r = E.Engine.run_iterations eng iterations in
        Wl.report_phases ctx ~start r;
        r)
  in
  Wl.iteration_units ctx "run_s" report;
  Stats.attempt ctx.ledger (fun () ->
      let rows = E.Engine.total_rows eng and matches = Wl.run_matches report in
      Wl.check
        (rows = expected_rows && matches = expected_matches)
        (Printf.sprintf "math-eqsat: %d rows / %d matches, expected %d / %d" rows matches
           expected_rows expected_matches));
  let results =
    List.init n_seeds (fun i ->
        let dt, r = Wl.timed "extract" (fun () -> E.Engine.extract_value eng (seed_value i)) in
        Wl.unit_sample ctx "extract_s" i dt;
        Wl.layer ctx "extract_s" dt;
        Wl.layer ctx "extract.calls" 1.0;
        r)
  in
  List.iteri
    (fun i (r, cost_before) ->
      Stats.attempt ctx.ledger (fun () ->
          match r with
          | None -> Error (Printf.sprintf "math-eqsat: %s has no term" (seed_name i))
          | Some (r : E.Extract.result) ->
            if r.cost > cost_before then
              Error
                (Printf.sprintf "math-eqsat: %s cost %d above its seed's %d" (seed_name i) r.cost
                   cost_before)
            else begin
              ignore
                (E.run_string eng
                   (Printf.sprintf "(check (= %s %s))" (seed_name i) (term_string r.term)));
              Ok ()
            end))
    (List.combine results before);
  Wl.set_layer ctx "rows" (float_of_int (E.Engine.total_rows eng));
  Wl.set_layer ctx "classes" (float_of_int (E.Engine.n_classes eng))
