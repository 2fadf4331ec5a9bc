(* herbie-sound: every Herbie.Suite benchmark improved in Sound mode
   (guarded rules plus the interval and not-equals analyses) through
   Pipeline.improve. Each bench grows a small e-graph for a few iterations,
   so per-iteration fixed costs (planning, plan compilation, lattice
   merges) dominate rather than data volume. The suite is a fixed input. *)

module E = Egglog
module H = Herbie

let iterations = 7

type state = { benches : H.Suite.bench list; program : string }

let prepare ~seed:_ = { benches = H.Suite.benches; program = H.Rules.sound_program () }

(* Set-up of one bench's e-graph as improve performs it: a fresh engine,
   the sound ruleset, the variable ranges and the root term. *)
let setup_bench (ctx : Wl.ctx) st (bench : H.Suite.bench) =
  let setup_s, () =
    Wl.timed "setup" (fun () ->
        let eng =
          Spans.with_span "engine.create" (fun () ->
              E.Engine.create ~scheduler:E.Engine.backoff_default ())
        in
        let text =
          String.concat "\n"
            [
              st.program;
              H.Rules.range_facts bench.ranges;
              Printf.sprintf "(define root %s)" (H.Rules.expr_to_egglog bench.expr);
            ]
        in
        let parse_s, cmds = Wl.timed "frontend.parse" (fun () -> E.Frontend.parse_program text) in
        Wl.layer ctx "frontend.parse_s" parse_s;
        ignore (Spans.with_span "engine.load" (fun () -> E.Engine.run_program eng cmds)))
  in
  Wl.sample ctx "setup_s" setup_s

(* Exact value of a root-free expression in rational arithmetic; [None]
   where it divides by zero. *)
let rec exact env (e : H.Fpexpr.expr) =
  let ( let* ) = Option.bind in
  let bin f a b =
    let* x = exact env a in
    let* y = exact env b in
    f x y
  in
  match e with
  | Num r -> Some r
  | Var x -> Some (Rat.of_float (env x))
  | Add (a, b) -> bin (fun x y -> Some (Rat.add x y)) a b
  | Sub (a, b) -> bin (fun x y -> Some (Rat.sub x y)) a b
  | Mul (a, b) -> bin (fun x y -> Some (Rat.mul x y)) a b
  | Div (a, b) -> bin (fun x y -> if Rat.sign y = 0 then None else Some (Rat.div x y)) a b
  | Neg a -> Option.map Rat.neg (exact env a)
  | Fma (a, b, c) ->
    let* ab = bin (fun x y -> Some (Rat.mul x y)) a b in
    Option.map (Rat.add ab) (exact env c)
  | Sqrt _ | Cbrt _ -> raise Exit

(* The chosen program must compute the same real function as the input on
   the held-out sample. Root-free pairs are compared exactly in rational
   arithmetic, which also settles cancellations too deep for the
   double-double oracle (expand-binomial's x^2 under a 1e14 cancellation);
   pairs with roots fall back to Error.equivalent_on. *)
let equivalent spec a b =
  try
    List.for_all
      (fun env ->
        match (exact env a, exact env b) with
        | Some x, Some y -> Rat.equal x y
        | None, None -> true
        | _ -> false)
      (H.Error.points spec)
  with Exit -> H.Error.equivalent_on spec a b

(* improve performs its own set-up, so the answer takes exactly the loop. *)
let answer_parts = [ "run_s" ]

(* Verdicts already reached, by bench and chosen program: every round makes
   the same choices, and a program is checked once. *)
let verdicts : (string * H.Fpexpr.expr, (unit, string) result) Hashtbl.t = Hashtbl.create 64

let round (ctx : Wl.ctx) st =
  List.iter (setup_bench ctx st) st.benches;
  let _, outcomes =
    Wl.timed "herbie.run" (fun () ->
        List.mapi
          (fun i bench ->
            let dt, o =
              Wl.timed "herbie.improve" (fun () -> H.Pipeline.improve ~iterations H.Pipeline.Sound bench)
            in
            Wl.sample ctx "req_ms" (dt *. 1000.0);
            Wl.unit_sample ctx "run_s" i dt;
            o)
          st.benches)
  in
  let bits = List.map (fun (o : H.Pipeline.outcome) -> o.bits_after) outcomes in
  Wl.sample ctx "bits_error_mean"
    (List.fold_left ( +. ) 0.0 bits /. float_of_int (List.length bits));
  (* improve promises a program no worse than the input on its training
     sample; on the held-out sample it can lose a little (cancel-crossing
     does on this suite), which is counted, not failed. *)
  let regressions = List.filter (fun (o : H.Pipeline.outcome) -> o.bits_after > o.bits_before) outcomes in
  Wl.set_layer ctx "herbie.test_regressions" (float_of_int (List.length regressions));
  let verdict (o : H.Pipeline.outcome) =
    let train = H.Pipeline.train_spec o.bench in
    if not (equivalent (H.Pipeline.test_spec o.bench) o.bench.expr o.chosen) then
      Error (Printf.sprintf "herbie-sound: %s: chosen program is not equivalent" o.bench.name)
    else
      let before = H.Error.avg_bits train o.bench.expr and after = H.Error.avg_bits train o.chosen in
      Wl.check (after <= before)
        (Printf.sprintf "herbie-sound: %s: %.3f training bits after > %.3f before" o.bench.name after
           before)
  in
  List.iter
    (fun (o : H.Pipeline.outcome) ->
      Stats.attempt ctx.ledger (fun () ->
          let key = (o.bench.name, o.chosen) in
          match Hashtbl.find_opt verdicts key with
          | Some v -> v
          | None ->
            let v = verdict o in
            Hashtbl.replace verdicts key v;
            v))
    outcomes
