(* Golden tests for the --explain-plans dump (Engine.explain_plans): the
   format is deterministic by design — atoms in declaration order, cost
   estimates recomputed from current table statistics, one delta-variant
   order line per atom — so any planner change that shifts an ordering or
   estimate must update these fixtures consciously. *)

module E = Egglog

let check_plans name program expected =
  let eng = E.Engine.create () in
  ignore (E.run_string eng program);
  Alcotest.(check string) name expected (E.Engine.explain_plans eng)

let test_transitive_closure () =
  check_plans "path program plans"
    {|
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 1 2) (edge 2 3) (edge 3 4)
      (run 10)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (edge x y) -> ()  rows=3\n\
    \  order: x(est=3) y(est=1)\n\
    \  lowering: compiled single-atom (arity 2, specialized)\n\
    \  delta[0] (0 rows) order: x y  [compiled single-atom (arity 2, specialized)]\n\
     rule rule_2 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (path x y) -> ()  rows=6\n\
    \    [1] (edge y z) -> ()  rows=3\n\
    \  order: y(est=3) z(est=1) x(est=2)\n\
    \  lowering: compiled two-atom (arities 2+2, specialized/specialized)\n\
    \  delta[0] (0 rows) order: y z x  [compiled two-atom (arities 2+2, specialized/specialized)]\n\
    \  delta[1] (0 rows) order: y z x  [compiled two-atom (arities 2+2, specialized/specialized)]\n"

let test_rewrite_rule () =
  (* a rewrite compiles to a single atom whose output is an internal
     variable; the planner binds the (most selective) output column first *)
  check_plans "commutativity rewrite plan"
    {|
      (datatype M (Num i64) (Add M M))
      (rewrite (Add a b) (Add b a))
      (define e (Add (Num 1) (Num 2)))
      (run 2)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (Add a b) -> $3  rows=2\n\
    \  order: $3(est=1) a(est=2) b(est=1)\n\
    \  lowering: compiled single-atom (arity 3, specialized)\n\
    \  delta[0] (0 rows) order: a b $3  [compiled single-atom (arity 3, specialized)]\n"

let test_triangle_with_guard () =
  (* three-way cyclic join plus a primitive guard scheduled once its input
     is bound *)
  check_plans "triangle query plan"
    {|
      (relation e (i64 i64))
      (relation tri (i64 i64 i64))
      (rule ((e x y) (e y z) (e z x) (< x 10)) ((tri x y z)))
      (e 1 2) (e 2 3) (e 3 1) (e 4 5) (e 5 4)
      (run)
    |}
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (e x y) -> ()  rows=5\n\
    \    [1] (e y z) -> ()  rows=5\n\
    \    [2] (e z x) -> ()  rows=5\n\
    \  order: z(est=5) x(est=1) y(est=1)\n\
    \    prim@2 (< x 10) -> $6\n\
    \  lowering: compiled generic (3 atoms)\n\
    \  delta[0] (0 rows) order: x z y  [compiled generic (3 atoms)]\n\
    \  delta[1] (0 rows) order: z x y  [compiled generic (3 atoms)]\n\
    \  delta[2] (0 rows) order: z x y  [compiled generic (3 atoms)]\n"

let test_compiled_plans_disabled () =
  (* with --no-compiled-plans every lowering line reports the interpreter *)
  let eng = E.Engine.create ~compiled_plans:false () in
  ignore
    (E.run_string eng
       {|
      (relation edge (i64 i64))
      (rule ((edge x y)) ((edge y x)))
      (edge 1 2)
      (run 1)
    |});
  Alcotest.(check string)
    "interpreter lowering"
    "rule rule_1 (ruleset default)\n\
    \  atoms:\n\
    \    [0] (edge x y) -> ()  rows=2\n\
    \  order: x(est=2) y(est=1)\n\
    \  lowering: interpreter (compiled plans disabled)\n\
    \  delta[0] (1 rows) order: x y  [interpreter (compiled plans disabled)]\n"
    (E.Engine.explain_plans eng)

let test_atomless_rule () =
  check_plans "rule with no atoms"
    {|
      (relation seed (i64))
      (rule () ((seed 1)))
    |}
    "rule rule_1 (ruleset default)\n  (no atoms)\n"

let test_no_rules () = check_plans "no rules, empty dump" "(relation r (i64))" ""

(* ------------------------------------------------------------------ *)
(* The greedy order against its reference implementation               *)
(* ------------------------------------------------------------------ *)

(* Property tests run from a pinned seed so failures reproduce exactly;
   override with EGGLOG_TEST_SEED=<n>. *)
let test_seed =
  match Sys.getenv_opt "EGGLOG_TEST_SEED" with
  | None -> 0x5eed2026
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "EGGLOG_TEST_SEED must be an integer, got %S" s))

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |]) t

(* Structural equality of plans. Plans built from one query share its
   atoms and primitive records physically, and [compare] skips physically
   equal blocks, so it never reaches a primitive's closures. *)
let same_plan (a : E.Compile.cquery) (b : E.Compile.cquery) = compare a b = 0

(* Tables the random queries draw on: relations of arity 1-3 and an
   i64 -> i64 function, whose output column is a fourth place a variable
   can repeat. *)
let plan_tables = [| ("r1", 1); ("r2", 2); ("r3", 3); ("f", 1) |]

let plan_env =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       "(relation r1 (i64)) (relation r2 (i64 i64)) (relation r3 (i64 i64 i64))\n\
        (function f (i64) i64)");
  let db = E.Engine.database eng in
  {
    E.Compile.find_func =
      (fun name -> Option.map E.Table.func (E.Database.find_func db (E.Symbol.intern name)));
  }

(* A random query: 1-5 atoms over four variables (so variables repeat,
   within and across atoms) and three constants, plus an optional
   primitive guard; and per-atom statistics drawn from a handful of small
   values, so cost and coverage ties are common. *)
type plan_case = {
  pc_atoms : (int * [ `V of int | `C of int ] list) list;
  pc_guard : bool;
  pc_cards : (int * int list) list;  (* rows, distinct counts (may be short) *)
}

let gen_plan_case =
  QCheck2.Gen.(
    let arg =
      frequency [ (3, map (fun i -> `V i) (int_bound 3)); (1, map (fun c -> `C c) (int_bound 2)) ]
    in
    let small = oneofl [ 0; 1; 1; 2; 2; 4; 8 ] in
    map3
      (fun atoms guard cards -> { pc_atoms = atoms; pc_guard = guard; pc_cards = cards })
      (list_size (int_range 1 5) (pair (int_bound 3) (list_repeat 4 arg)))
      bool
      (list_repeat 5 (pair small (list_size (int_range 0 4) small))))

let plan_case_query c =
  let var i = E.Ast.Var (Printf.sprintf "x%d" i) in
  let expr_of = function `V i -> var i | `C k -> E.Ast.Lit (E.Value.VInt k) in
  let facts =
    List.map
      (fun (t, args) ->
        let name, arity = plan_tables.(t) in
        if name = "f" then
          E.Ast.Eq (E.Ast.Call ("f", [ expr_of (List.hd args) ]), expr_of (List.nth args 1))
        else
          E.Ast.Holds
            (E.Ast.Call (name, List.map expr_of (List.filteri (fun i _ -> i < arity) args))))
      c.pc_atoms
  in
  let used =
    List.concat_map (fun (_, args) -> List.filter_map (function `V i -> Some i | `C _ -> None) args)
      c.pc_atoms
  in
  let guard =
    match used with
    | v :: _ when c.pc_guard ->
      [ E.Ast.Holds (E.Ast.Call ("<", [ var v; E.Ast.Lit (E.Value.VInt 2) ])) ]
    | _ -> []
  in
  E.Compile.compile_query plan_env (facts @ guard)

let plan_case_cards c (q : E.Compile.cquery) =
  Array.mapi
    (fun i _ ->
      let rows, distinct = List.nth c.pc_cards i in
      { E.Compile.ac_rows = rows; ac_distinct = Array.of_list distinct })
    q.E.Compile.atoms

let prop_greedy_order_matches_reference =
  QCheck2.Test.make
    ~name:"greedy_order == reference order; replan == reorder by greedy_order" ~count:1000
    gen_plan_case (fun c ->
      match plan_case_query c with
      | exception (E.Compile.Unsat | E.Compile.Error _) -> true
      | q ->
        let cards = plan_case_cards c q in
        let order = E.Compile.greedy_order q ~cards in
        let expected = Ref_plan.greedy_order q ~cards in
        if order <> expected then
          QCheck2.Test.fail_reportf "order [%s], reference [%s]"
            (String.concat " " (List.map string_of_int (Array.to_list order)))
            (String.concat " " (List.map string_of_int (Array.to_list expected)));
        same_plan (E.Compile.replan q ~cards) (E.Compile.reorder q ~order))

(* ------------------------------------------------------------------ *)
(* The engine's plan cache reuses plans by order                       *)
(* ------------------------------------------------------------------ *)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (E.Telemetry.snapshot ()).E.Telemetry.sn_counters)

(* Run [setup] then [iterations] single iterations on a fresh engine with
   telemetry on, returning the dump and the plan counters. Checks, after
   every iteration, that each rule that replanned holds exactly the orders
   its slots were due (the greedy orders against the statistics the search
   started from), and at the end that every cached slot plan is the plan
   built from scratch for its own order. *)
let run_and_check_cache ~label ~jobs ~setup ~iterations =
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  let eng = E.Engine.create ~scheduler:E.Engine.backoff_default ~jobs () in
  let fail fmt = Alcotest.failf ("%s jobs %d: " ^^ fmt) label jobs in
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      setup eng;
      let replanned = ref 0 in
      for _ = 1 to iterations do
        let due = E.Engine.planned_orders eng in
        let before = E.Engine.cached_plans eng in
        ignore (E.Engine.run_iterations eng 1);
        List.iter2
          (fun (rule, orders) ((_, _, old_plans), (_, _, plans)) ->
            if plans != old_plans then begin
              incr replanned;
              Array.iteri
                (fun j (p : E.Compile.cquery) ->
                  if p.E.Compile.order <> orders.(j) then
                    fail "rule %s slot %d holds a plan for another order" rule j)
                plans
            end)
          due
          (List.combine before (E.Engine.cached_plans eng))
      done;
      Alcotest.(check bool) (Printf.sprintf "%s jobs %d: rules replanned" label jobs) true
        (!replanned > 0);
      List.iter
        (fun (rule, q, plans) ->
          Array.iteri
            (fun j (p : E.Compile.cquery) ->
              if not (same_plan p (E.Compile.reorder q ~order:p.E.Compile.order)) then
                fail "rule %s slot %d is not its order's plan" rule j)
            plans)
        (E.Engine.cached_plans eng);
      let reused = counter "join.plans_reused" in
      Alcotest.(check bool) (Printf.sprintf "%s jobs %d: join.plans_reused > 0" label jobs) true
        (reused > 0);
      ( E.Serialize.dump_string eng,
        (counter "join.plans_built", reused, counter "join.replans") ))

let check_cache_across_jobs ~label ~setup ~iterations =
  let dump1, counts1 = run_and_check_cache ~label ~jobs:1 ~setup ~iterations in
  let dump2, counts2 = run_and_check_cache ~label ~jobs:2 ~setup ~iterations in
  Alcotest.(check string) (label ^ ": dump at jobs 2 = jobs 1") dump1 dump2;
  Alcotest.(check (triple int int int))
    (label ^ ": plans built/reused, replans at jobs 2 = jobs 1") counts1 counts2

let test_math_suite_cache () =
  check_cache_across_jobs ~label:"math suite" ~iterations:10 ~setup:(fun eng ->
      ignore (E.run_string eng (Math_suite.egglog_program ())))

(* One Herbie bench the way the Sound pipeline saturates it. *)
let test_herbie_cache () =
  let bench = Herbie.Suite.find "sqrt-cancel" in
  check_cache_across_jobs ~label:"herbie sqrt-cancel" ~iterations:7 ~setup:(fun eng ->
      ignore (E.run_string eng (Herbie.Rules.sound_program ()));
      ignore (E.run_string eng (Herbie.Rules.range_facts bench.Herbie.Suite.ranges));
      let root = Herbie.Rules.expr_to_egglog bench.Herbie.Suite.expr in
      ignore (E.run_string eng (Printf.sprintf "(define root %s)" root)))

let () =
  Printf.printf "property-test seed: %d (override with EGGLOG_TEST_SEED=<n>)\n%!" test_seed;
  try
    Alcotest.run ~and_exit:false "plans"
      [
        ( "explain-plans goldens",
          [
            Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
            Alcotest.test_case "rewrite rule" `Quick test_rewrite_rule;
            Alcotest.test_case "triangle with guard" `Quick test_triangle_with_guard;
            Alcotest.test_case "compiled plans disabled" `Quick test_compiled_plans_disabled;
            Alcotest.test_case "atomless rule" `Quick test_atomless_rule;
            Alcotest.test_case "no rules" `Quick test_no_rules;
          ] );
        ("greedy order", [ to_alcotest prop_greedy_order_matches_reference ]);
        ( "plan cache",
          [
            Alcotest.test_case "math suite: slots reuse plans, jobs-independent" `Quick
              test_math_suite_cache;
            Alcotest.test_case "herbie bench: slots reuse plans, jobs-independent" `Quick
              test_herbie_cache;
          ] );
      ]
  with e ->
    Printf.eprintf "\nproperty failure: reproduce with EGGLOG_TEST_SEED=%d\n%!" test_seed;
    raise e
