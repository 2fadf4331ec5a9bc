(* Deeper engine properties: extraction soundness and cost consistency,
   nested push/pop, planner behaviour on adversarial queries, scheduler
   bookkeeping, and the i64/Rational primitive algebra. *)

module E = Egglog

(* Property tests run from a pinned seed so CI failures reproduce exactly;
   override with EGGLOG_TEST_SEED=<n> (the seed is printed at startup and
   on any property failure). QCheck's own QCHECK_SEED still works but only
   covers qcheck's default RNG; this pin covers every suite below. *)
let test_seed =
  match Sys.getenv_opt "EGGLOG_TEST_SEED" with
  | None -> 0x5eed2026
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "EGGLOG_TEST_SEED must be an integer, got %S" s))

(* Every property draws from its own state seeded the same way, so each
   reproduces in isolation regardless of suite order. *)
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| test_seed |]) t

let math_schema =
  {| (datatype M (Num i64) (Var String) (Add M M) (Mul M M) (Neg M)) |}

let gen_term_src =
  QCheck2.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  map (fun i -> Printf.sprintf "(Num %d)" i) (int_range (-5) 5);
                  map (fun i -> Printf.sprintf "(Var \"v%d\")" i) (int_bound 2);
                ]
            else
              oneof
                [
                  map (fun i -> Printf.sprintf "(Num %d)" i) (int_range (-5) 5);
                  map2 (fun a b -> Printf.sprintf "(Add %s %s)" a b) (self (n / 2)) (self (n / 2));
                  map2 (fun a b -> Printf.sprintf "(Mul %s %s)" a b) (self (n / 2)) (self (n / 2));
                  map (fun a -> Printf.sprintf "(Neg %s)" a) (self (n - 1));
                ])
          (min n 5)))

(* recompute the ast-size cost of an extracted term *)
let rec term_cost (t : E.Extract.term) =
  match t with
  | E.Extract.T_const _ -> 0
  | E.Extract.T_app (_, args) -> 1 + List.fold_left (fun acc a -> acc + term_cost a) 0 args

let prop_extraction_sound_and_consistent =
  QCheck2.Test.make ~name:"extraction: term is equal to root, cost consistent, minimal vs variants"
    ~count:60 gen_term_src (fun src ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng math_schema);
      ignore (E.run_string eng (Printf.sprintf "(define root %s)" src));
      ignore
        (E.run_string eng
           {|
        (rewrite (Add a b) (Add b a))
        (rewrite (Neg (Neg a)) a)
        (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
        (rewrite (Mul (Num x) (Num y)) (Num (* x y)))
        (run 4)
      |});
      let root = E.Engine.eval_call eng "root" [] in
      match E.Engine.extract_value eng root with
      | None -> false
      | Some { E.Extract.term; cost } ->
        (* 1. reported cost equals the term's recomputed cost *)
        let consistent = term_cost term = cost in
        (* 2. the extracted term is in the root's class *)
        let printed = Sexpr.to_string (E.Extract.term_to_sexp term) in
        let sound =
          E.Engine.check_facts eng
            [ E.Ast.Eq (E.Ast.Var "root", E.Frontend.expr_of_sexp (Sexpr.parse_one printed)) ]
        in
        (* 3. no enumerated variant beats it (excluding the root alias,
           whose declared :cost is prohibitive but whose naive ast-size
           recomputation here would be 1) *)
        let variants = E.Engine.extract_candidates eng root ~max:64 in
        let is_alias = function
          | E.Extract.T_app (f, []) when E.Symbol.name f = "root" -> true
          | _ -> false
        in
        let minimal =
          List.for_all (fun v -> is_alias v || term_cost v >= cost) variants
        in
        consistent && sound && minimal)

let prop_push_pop_nesting =
  QCheck2.Test.make ~name:"nested push/pop restores sizes exactly" ~count:60
    QCheck2.Gen.(list_size (int_range 1 8) (int_range 0 2))
    (fun script ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng "(sort V) (function mk (i64) V) (relation r (i64))");
      let counter = ref 0 in
      let stack = ref [] in
      let snapshot () = (E.Engine.total_rows eng, E.Engine.n_classes eng) in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
            ignore (E.run_string eng "(push)");
            stack := snapshot () :: !stack
          | 1 ->
            incr counter;
            ignore (E.Engine.eval_call eng "mk" [ E.Value.VInt !counter ]);
            E.Engine.set_fact eng "r" [ E.Value.VInt !counter ] E.Value.VUnit
          | _ -> (
            match !stack with
            | [] -> ()
            | saved :: rest ->
              ignore (E.run_string eng "(pop)");
              stack := rest;
              if snapshot () <> saved then ok := false))
        script;
      !ok)

let test_planner_handles_cartesian () =
  (* disconnected atoms = cross product; must still be correct *)
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation a (i64))
      (relation b (i64))
      (relation pair (i64 i64))
      (rule ((a x) (b y)) ((pair x y)))
      (a 1) (a 2) (a 3)
      (b 10) (b 20)
      (run)
    |});
  Alcotest.(check int) "3x2 pairs" 6 (E.Engine.table_size eng "pair")

let test_planner_shared_var_chain () =
  (* a chain query where the middle variable is the most selective *)
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation e (i64 i64))
      (relation tri (i64 i64 i64))
      (rule ((e x y) (e y z) (e z x)) ((tri x y z)))
      (e 1 2) (e 2 3) (e 3 1)
      (e 4 5) (e 5 4)
      (run)
    |});
  (* the 3-cycle in each rotation *)
  Alcotest.(check int) "triangles" 3 (E.Engine.table_size eng "tri")

let test_self_join_nonlinear () =
  let eng = E.Engine.create () in
  ignore
    (E.run_string eng
       {|
      (relation e (i64 i64))
      (relation dup (i64))
      (rule ((e x x)) ((dup x)))
      (e 1 1) (e 1 2) (e 2 2)
      (run)
    |});
  Alcotest.(check int) "self loops" 2 (E.Engine.table_size eng "dup")

let test_backoff_unbans () =
  (* after a ban expires the rule fires again and reaches the fixpoint *)
  let eng = E.Engine.create ~scheduler:(E.Engine.Backoff { match_limit = 1; ban_length = 1 }) () in
  ignore
    (E.run_string eng
       {|
      (relation n (i64))
      (rule ((n x) (< x 6)) ((n (+ x 1))))
      (n 0)
    |});
  let report = E.Engine.run_iterations eng 60 in
  ignore report;
  Alcotest.(check int) "reaches 7 numbers despite bans" 7 (E.Engine.table_size eng "n")

let test_i64_primitive_algebra () =
  let outputs =
    E.run_program_string
      {|
      (function v (String) i64 :merge new)
      (set (v "shl") (<< 3 4))
      (set (v "shr") (>> -16 2))
      (set (v "mod") (% 17 5))
      (set (v "abs") (abs -9))
      (check (= (v "shl") 48))
      (check (= (v "shr") -4))
      (check (= (v "mod") 2))
      (check (= (v "abs") 9))
    |}
  in
  Alcotest.(check int) "all pass" 4 (List.length outputs)

let test_rational_algebra () =
  let outputs =
    E.run_program_string
      {|
      (function v (String) Rational :merge new)
      (set (v "sum") (+ 1/3 1/6))
      (set (v "prod") (* 2/3 9/4))
      (set (v "div") (/ 1/2 1/8))
      (set (v "neg") (- 0/1 22/7))
      (check (= (v "sum") 1/2))
      (check (= (v "prod") 3/2))
      (check (= (v "div") 4/1))
      (check (= (v "neg") (- 22/7)))
    |}
  in
  Alcotest.(check int) "all pass" 4 (List.length outputs)

let prop_run_is_idempotent_at_fixpoint =
  QCheck2.Test.make ~name:"running past saturation changes nothing" ~count:40
    QCheck2.Gen.(list_size (int_range 0 12) (pair (int_bound 5) (int_bound 5)))
    (fun edges ->
      let eng = E.Engine.create () in
      ignore
        (E.run_string eng
           {|
          (relation edge (i64 i64))
          (relation path (i64 i64))
          (rule ((edge x y)) ((path x y)))
          (rule ((path x y) (edge y z)) ((path x z)))
        |});
      List.iter
        (fun (a, b) -> E.Engine.set_fact eng "edge" [ E.Value.VInt a; E.Value.VInt b ] E.Value.VUnit)
        edges;
      ignore (E.Engine.run_iterations eng 50);
      let before = (E.Engine.total_rows eng, E.Engine.n_classes eng) in
      ignore (E.Engine.run_iterations eng 10);
      (E.Engine.total_rows eng, E.Engine.n_classes eng) = before)

(* ------------------------------------------------------------------ *)
(* Differential testing: the planner + generic join vs the naive       *)
(* reference evaluator in Ref_join.                                    *)
(* ------------------------------------------------------------------ *)

let compile_env db =
  {
    E.Compile.find_func =
      (fun name -> Option.map E.Table.func (E.Database.find_func db (E.Symbol.intern name)));
  }

let join_multiset db ?cache ?(fast_paths = true) q ~ranges =
  let acc = ref [] in
  E.Join.search db ?cache ~fast_paths q ~ranges (fun binding ->
      acc := String.concat "," (Array.to_list (Array.map E.Value.to_string binding)) :: !acc);
  List.sort compare !acc

(* Same multiset through the compiled evaluator (Join.compile_plan +
   search_compiled) — the third corner of the differential triangle. *)
let compiled_multiset db ?cache ?(fast_paths = true) q ~ranges =
  let cp = E.Join.compile_plan ~fast_paths q in
  let acc = ref [] in
  E.Join.search_compiled db ?cache cp ~ranges (fun binding ->
      acc := String.concat "," (Array.to_list (Array.map E.Value.to_string binding)) :: !acc);
  List.sort compare !acc

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y <> x) l)))
      l

(* A randomized scenario: one or two relations (arity 1-5, so arity-5
   atoms exercise the compiled generic-binder fallback) plus an i64-valued
   function [f], facts inserted in two stamped batches, a random
   conjunctive query of 1-3 atoms over them, and optionally a primitive
   application (a binder, an always-true guard, or a never-true guard). *)
type diff_scenario = {
  ds_arities : int list;  (* relation arities: r0, r1, ... *)
  ds_inserts : (int * int list) list;  (* (table pick, raw column values) *)
  ds_split : int;  (* batch boundary, taken mod (inserts + 1) *)
  ds_atoms : (int * [ `V of int | `C of int ] list) list;
  ds_prim : int;  (* 0 = none, 1 = binder, 2 = true guard, 3 = false guard *)
  ds_ranges : int list;  (* per-atom stamp-window picks (delta mode) *)
}

let gen_scenario =
  QCheck2.Gen.(
    let arg = oneof [ map (fun i -> `V i) (int_bound 5); map (fun c -> `C c) (int_bound 3) ] in
    map
      (fun ((arities, inserts), (split, atoms), (prim, ranges)) ->
        {
          ds_arities = arities;
          ds_inserts = inserts;
          ds_split = split;
          ds_atoms = atoms;
          ds_prim = prim;
          ds_ranges = ranges;
        })
      (triple
         (pair
            (list_size (int_range 1 2) (int_range 1 5))
            (list_size (int_range 0 16) (pair (int_bound 2) (list_repeat 5 (int_bound 3)))))
         (pair (int_bound 16) (list_size (int_range 1 3) (pair (int_bound 2) (list_repeat 6 arg))))
         (pair (int_bound 3) (list_repeat 3 (int_bound 5)))))

(* Populate an engine for the scenario. Returns the database and the three
   stamp boundaries (start, between batches, end); batch 1 rows carry
   stamps in [t0, t1) and batch 2 rows in [t1, t2). *)
let build_scenario ds =
  let n_rels = List.length ds.ds_arities in
  let eng = E.Engine.create () in
  let decls = Buffer.create 64 in
  List.iteri
    (fun i a ->
      Buffer.add_string decls
        (Printf.sprintf "(relation r%d (%s))\n" i
           (String.concat " " (List.init a (fun _ -> "i64")))))
    ds.ds_arities;
  Buffer.add_string decls "(function f (i64) i64)\n";
  ignore (E.run_string eng (Buffer.contents decls));
  let db = E.Engine.database eng in
  let insert (pick, raw) =
    let pick = pick mod (n_rels + 1) in
    if pick < n_rels then begin
      let a = List.nth ds.ds_arities pick in
      let key = List.filteri (fun i _ -> i < a) raw |> List.map (fun v -> E.Value.VInt v) in
      E.Engine.set_fact eng (Printf.sprintf "r%d" pick) key E.Value.VUnit
    end
    else begin
      (* value depends only on the key, so re-insertion never conflicts *)
      let k = List.hd raw in
      E.Engine.set_fact eng "f" [ E.Value.VInt k ] (E.Value.VInt (k mod 3))
    end
  in
  let n = List.length ds.ds_inserts in
  let split = if n = 0 then 0 else ds.ds_split mod (n + 1) in
  let t0 = E.Database.timestamp db in
  List.iteri (fun i ins -> if i < split then insert ins) ds.ds_inserts;
  E.Database.bump_timestamp db;
  let t1 = E.Database.timestamp db in
  List.iteri (fun i ins -> if i >= split then insert ins) ds.ds_inserts;
  E.Database.bump_timestamp db;
  let t2 = E.Database.timestamp db in
  (db, [| t0; t1; t2 |])

(* The scenario's query as surface facts, plus the distinct pattern
   variables it binds (in first-use order; includes the binder "s" when
   ds_prim picks one). *)
let scenario_facts ds =
  let n_rels = List.length ds.ds_arities in
  let var i = E.Ast.Var (Printf.sprintf "x%d" i) in
  let expr_of = function `V i -> var i | `C c -> E.Ast.Lit (E.Value.VInt c) in
  let used = ref [] in
  let use s =
    List.iter (function `V i -> used := i :: !used | `C _ -> ()) s;
    s
  in
  let facts =
    List.map
      (fun (pick, specs) ->
        let pick = pick mod (n_rels + 1) in
        if pick < n_rels then begin
          let a = List.nth ds.ds_arities pick in
          let args = use (List.filteri (fun i _ -> i < a) specs) in
          E.Ast.Holds (E.Ast.Call (Printf.sprintf "r%d" pick, List.map expr_of args))
        end
        else
          match specs with
          | arg :: out :: _ ->
            let args = use [ arg; out ] in
            E.Ast.Eq
              (E.Ast.Call ("f", [ expr_of (List.nth args 0) ]), expr_of (List.nth args 1))
          | _ -> assert false)
      ds.ds_atoms
  in
  let prims, binder =
    match (ds.ds_prim, List.rev !used) with
    | 0, _ | _, [] -> ([], [])
    | 1, v :: _ ->
      (* binder: s is computed from a join variable *)
      ( [ E.Ast.Eq (E.Ast.Call ("+", [ var v; E.Ast.Lit (E.Value.VInt 1) ]), E.Ast.Var "s") ],
        [ E.Ast.Var "s" ] )
    | 2, v :: _ ->
      (* always-true guard *)
      ([ E.Ast.Eq (E.Ast.Call ("+", [ var v; E.Ast.Lit (E.Value.VInt 0) ]), var v) ], [])
    | _, v :: _ ->
      (* never-true guard: x + 1 = x *)
      ([ E.Ast.Eq (E.Ast.Call ("+", [ var v; E.Ast.Lit (E.Value.VInt 1) ]), var v) ], [])
  in
  let vars =
    List.fold_left (fun acc i -> if List.mem (var i) acc then acc else var i :: acc) []
      (List.rev !used)
    |> List.rev
  in
  (facts @ prims, vars @ binder)

(* The scenario's query compiled against [db]. *)
let scenario_query ds db =
  E.Compile.compile_query (compile_env db) (fst (scenario_facts ds))

(* One differential case: reference output vs the production join under
   every configuration we ship — interpreted and compiled, cached and
   uncached, fast paths on and off, the cost-model replan, and every
   variable ordering (sampled once the order grows past 4 variables).
   Interpreter and compiled evaluator share one cache, which doubles as a
   regression for the cache-key identity invariant: both sides must
   request (and correctly answer from) the same entries. *)
let check_diff ds ~delta =
  let db, stamps = build_scenario ds in
  match scenario_query ds db with
  | exception E.Compile.Unsat -> true
  | exception E.Compile.Error _ -> true
  | q ->
    let n_atoms = Array.length q.E.Compile.atoms in
    if n_atoms = 0 then true
    else begin
      let ranges =
        if not delta then Array.make n_atoms E.Join.all_rows
        else
          Array.init n_atoms (fun i ->
              match List.nth ds.ds_ranges (i mod List.length ds.ds_ranges) with
              | 3 -> { E.Join.lo = stamps.(1); hi = max_int }
              | 4 -> { E.Join.lo = stamps.(0); hi = stamps.(1) }
              | 5 -> { E.Join.lo = stamps.(1); hi = stamps.(2) }
              | _ -> E.Join.all_rows)
      in
      let expected = Ref_join.matches_multiset db q ~ranges in
      let agree ?cache ?fast_paths q' = join_multiset db ?cache ?fast_paths q' ~ranges = expected in
      let agree_compiled ?cache ?fast_paths q' =
        compiled_multiset db ?cache ?fast_paths q' ~ranges = expected
      in
      let cache = E.Join.new_cache () in
      let ok = ref (agree ~cache q) in
      (* a second pass answers from the cached structures *)
      ok := !ok && agree ~cache q;
      ok := !ok && agree ~fast_paths:false q;
      (* compiled evaluator, warming and then reusing the same cache *)
      ok := !ok && agree_compiled ~cache q;
      ok := !ok && agree_compiled ~cache q;
      ok := !ok && agree_compiled q;
      ok := !ok && agree_compiled ~fast_paths:false q;
      let cards =
        Array.map
          (fun (a : E.Compile.atom) ->
            match E.Database.find_func db a.E.Compile.a_func.E.Schema.name with
            | Some t ->
              let rows, distinct = E.Database.table_stats db t in
              { E.Compile.ac_rows = rows; ac_distinct = distinct }
            | None -> assert false)
          q.E.Compile.atoms
      in
      let replanned = E.Compile.replan q ~cards in
      ok := !ok && agree ~cache replanned;
      ok := !ok && agree_compiled ~cache replanned;
      (* past 4 join variables full enumeration explodes (120+ orders);
         reversing the chosen order still exercises a worst-case plan *)
      let orders =
        let base = Array.to_list q.E.Compile.order in
        if List.length base <= 4 then permutations base else [ base; List.rev base ]
      in
      List.iter
        (fun perm ->
          let q' = E.Compile.reorder q ~order:(Array.of_list perm) in
          ok := !ok && agree q' && agree ~fast_paths:false q' && agree_compiled q')
        orders;
      !ok
    end

let prop_diff_full_ranges =
  QCheck2.Test.make
    ~name:"differential: compiled == interpreted == reference (full ranges, all orderings)"
    ~count:350 gen_scenario (fun ds -> check_diff ds ~delta:false)

let prop_diff_delta_ranges =
  QCheck2.Test.make
    ~name:"differential: compiled == interpreted == reference (delta stamp windows)" ~count:350
    gen_scenario (fun ds -> check_diff ds ~delta:true)

(* Engine-level differential for parallel search: the scenario's
   query becomes a rule writing its bindings into [out] — and, with two
   or more variables, unioning sort members through [g2], so apply sees
   fresh-id defaults, unions and merge conflicts — then
   the whole engine runs at jobs 1, 2 and 4 and both the canonical dump
   and the run-report fingerprint (per-iteration row/class/match counts,
   stop reason, per-rule stats) must come out byte-identical — the
   tentpole's determinism contract, exercised over random schemas and
   primitives. Facts land in two batches with a run between, so the
   semi-naïve delta variants fan out across domains too. *)
let report_fingerprint (r : E.Engine.run_report) =
  ( List.map
      (fun (s : E.Engine.iteration_stat) ->
        (s.it_index, s.it_rows, s.it_classes, s.it_changed, s.it_matches, s.it_delta_rows))
      r.iterations,
    r.stop_reason,
    r.rule_stats )

let run_scenario_at_jobs ?node_limit ?memory_limit ?compiled_plans ds ~jobs =
  let n_rels = List.length ds.ds_arities in
  let facts, vars = scenario_facts ds in
  let eng = E.Engine.create ?compiled_plans () in
  let decls = Buffer.create 64 in
  List.iteri
    (fun i a ->
      Buffer.add_string decls
        (Printf.sprintf "(relation r%d (%s))\n" i
           (String.concat " " (List.init a (fun _ -> "i64")))))
    ds.ds_arities;
  Buffer.add_string decls "(function f (i64) i64)\n";
  Buffer.add_string decls "(sort M)\n(function g2 (i64) M)\n";
  Buffer.add_string decls
    (Printf.sprintf "(relation out (%s))\n"
       (String.concat " " (List.init (1 + List.length vars) (fun _ -> "i64"))));
  ignore (E.run_string eng (Buffer.contents decls));
  let union_actions =
    (* exercise unions in apply: merge the classes keyed by
       the first two bound variables (fresh g2 members on first touch) *)
    match vars with
    | v1 :: v2 :: _ -> [ E.Ast.Union (E.Ast.Call ("g2", [ v1 ]), E.Ast.Call ("g2", [ v2 ])) ]
    | _ -> []
  in
  E.Engine.add_rule eng
    {
      E.Ast.rule_name = Some "scenario";
      query = facts;
      actions =
        E.Ast.Do (E.Ast.Call ("out", E.Ast.Lit (E.Value.VInt 0) :: vars)) :: union_actions;
      ruleset = None;
    };
  let insert (pick, raw) =
    let pick = pick mod (n_rels + 1) in
    if pick < n_rels then begin
      let a = List.nth ds.ds_arities pick in
      let key = List.filteri (fun i _ -> i < a) raw |> List.map (fun v -> E.Value.VInt v) in
      E.Engine.set_fact eng (Printf.sprintf "r%d" pick) key E.Value.VUnit
    end
    else begin
      let k = List.hd raw in
      E.Engine.set_fact eng "f" [ E.Value.VInt k ] (E.Value.VInt (k mod 3))
    end
  in
  let n = List.length ds.ds_inserts in
  let split = if n = 0 then 0 else ds.ds_split mod (n + 1) in
  List.iteri (fun i ins -> if i < split then insert ins) ds.ds_inserts;
  let rep1 = E.Engine.run_iterations ?node_limit ?memory_limit ~jobs eng 2 in
  List.iteri (fun i ins -> if i >= split then insert ins) ds.ds_inserts;
  let rep2 = E.Engine.run_iterations ?node_limit ?memory_limit ~jobs eng 3 in
  (E.Serialize.dump_string eng, report_fingerprint rep1, report_fingerprint rep2)

let prop_jobs_differential =
  QCheck2.Test.make
    ~name:
      "differential: parallel search+apply+rebuild (jobs 2, 4; compiled and interpreted) \
       dumps+reports == serial"
    ~count:60 gen_scenario (fun ds ->
      match run_scenario_at_jobs ds ~jobs:1 with
      | exception E.Engine.Egglog_error _ -> true
      | serial ->
        List.for_all (fun jobs -> run_scenario_at_jobs ds ~jobs = serial) [ 2; 4 ]
        (* the interpreter (--no-compiled-plans) must reproduce the same
           dump and report fingerprints, serial and parallel *)
        && List.for_all
             (fun jobs -> run_scenario_at_jobs ~compiled_plans:false ds ~jobs = serial)
             [ 1; 4 ])

(* Same contract when a budget stops the run mid-way: node and memory
   limits are modeled deterministically, so the stop reason, the stopped
   iteration and the dump must be byte-identical at any jobs count. *)
let prop_jobs_differential_limits =
  QCheck2.Test.make
    ~name:"differential: budget stops (node/memory limit) identical at jobs 2, 4" ~count:30
    gen_scenario (fun ds ->
      List.for_all
        (fun (node_limit, memory_limit) ->
          match run_scenario_at_jobs ?node_limit ?memory_limit ds ~jobs:1 with
          | exception E.Engine.Egglog_error _ -> true
          | serial ->
            List.for_all
              (fun jobs -> run_scenario_at_jobs ?node_limit ?memory_limit ds ~jobs = serial)
              [ 2; 4 ])
        [ (Some 40, None); (None, Some 30_000) ])

(* Regression for the cache-key representation: two distinct table
   incarnations (original and a pre-mutation snapshot) can reach the same
   version counter with different contents. A key that identified tables by
   name+version — as the old concatenated-string key did — would serve the
   first incarnation's index for the second and return stale rows; the
   structured key carries Table.uid, so each incarnation gets its own
   entry. *)
let test_cache_key_incarnations () =
  let eng = E.Engine.create () in
  ignore (E.run_string eng "(relation r (i64 i64)) (relation s (i64 i64))");
  let db = E.Engine.database eng in
  let set tbl a b = E.Engine.set_fact eng tbl [ E.Value.VInt a; E.Value.VInt b ] E.Value.VUnit in
  set "r" 1 2;
  set "s" 2 3;
  let q =
    E.Compile.compile_query (compile_env db)
      [
        E.Ast.Holds (E.Ast.Call ("r", [ E.Ast.Var "x"; E.Ast.Var "y" ]));
        E.Ast.Holds (E.Ast.Call ("s", [ E.Ast.Var "y"; E.Ast.Var "z" ]));
      ]
  in
  let ranges = [| E.Join.all_rows; E.Join.all_rows |] in
  let snapshot = E.Database.copy db in
  (* incarnation 1: s advances to version 2 with rows {(2,3),(2,4)} and the
     shared cache builds its structures against it *)
  set "s" 2 4;
  let cache = E.Join.new_cache () in
  let expect1 = Ref_join.matches_multiset db q ~ranges in
  Alcotest.(check int) "incarnation 1 has two matches" 2 (List.length expect1);
  Alcotest.(check (list string))
    "incarnation 1, fast path" expect1 (join_multiset db ~cache q ~ranges);
  Alcotest.(check (list string))
    "incarnation 1, trie join" expect1 (join_multiset db ~cache ~fast_paths:false q ~ranges);
  (* incarnation 2: the snapshot's s also reaches version 2, but with rows
     {(2,3),(2,5)} — the same cache must not resurrect incarnation 1 *)
  let s_snap =
    match E.Database.find_func snapshot (E.Symbol.intern "s") with
    | Some t -> t
    | None -> Alcotest.fail "no table s in snapshot"
  in
  E.Database.set snapshot s_snap [| E.Value.VInt 2; E.Value.VInt 5 |] E.Value.VUnit;
  let expect2 = Ref_join.matches_multiset snapshot q ~ranges in
  Alcotest.(check int) "incarnation 2 has two matches" 2 (List.length expect2);
  Alcotest.(check bool) "incarnations differ" true (expect1 <> expect2);
  Alcotest.(check (list string))
    "incarnation 2, fast path" expect2 (join_multiset snapshot ~cache q ~ranges);
  Alcotest.(check (list string))
    "incarnation 2, trie join" expect2
    (join_multiset snapshot ~cache ~fast_paths:false q ~ranges)

(* Companion regression: constants containing the old key format's
   delimiter characters must still produce distinct cache entries for
   distinct atoms sharing one cache. *)
let test_cache_key_structured_consts () =
  let eng = E.Engine.create () in
  ignore (E.run_string eng "(relation g (String i64)) (relation h (i64))");
  let db = E.Engine.database eng in
  ignore
    (E.run_string eng
       {| (g "a;1=b" 1) (g "a" 2) (h 1) (h 2) |});
  let query const =
    E.Compile.compile_query (compile_env db)
      [
        E.Ast.Holds
          (E.Ast.Call ("g", [ E.Ast.Lit (E.Value.VStr (E.Symbol.intern const)); E.Ast.Var "x" ]));
        E.Ast.Holds (E.Ast.Call ("h", [ E.Ast.Var "x" ]));
      ]
  in
  let ranges = [| E.Join.all_rows; E.Join.all_rows |] in
  let cache = E.Join.new_cache () in
  Alcotest.(check (list string)) "quoted const" [ "1" ] (join_multiset db ~cache (query "a;1=b") ~ranges);
  Alcotest.(check (list string)) "plain const" [ "2" ] (join_multiset db ~cache (query "a") ~ranges);
  (* answered from the now-warm cache *)
  Alcotest.(check (list string)) "quoted const again" [ "1" ]
    (join_multiset db ~cache (query "a;1=b") ~ranges)

(* ---- extraction: worklist vs the Bellman-Ford oracle, memo reuse ---- *)

let extraction_rules =
  {|
  (rewrite (Add a b) (Add b a))
  (rewrite (Mul a b) (Mul b a))
  (rewrite (Neg (Neg a)) a)
  (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
  (rewrite (Mul (Num x) (Num y)) (Num (* x y)))
  (rewrite (Add a (Num 0)) a)
|}

(* The best table, and what extract and candidates read off it for the
   classes of [root] and [nr]. *)
let oracle_agrees what eng db =
  let table = E.Extract.compute db in
  match Ref_extract.first_mismatch db with
  | Some id -> QCheck2.Test.fail_reportf "%s: %s" what (Ref_extract.describe db id)
  | None ->
    List.iter
      (fun name ->
        let v = E.Engine.eval_call eng name [] in
        if E.Extract.extract table db v <> Ref_extract.extract db v then
          QCheck2.Test.fail_reportf "%s: extract %s differs" what name;
        List.iter
          (fun max ->
            if E.Extract.candidates table db v ~max <> Ref_extract.candidates db v ~max then
              QCheck2.Test.fail_reportf "%s: candidates %s ~max:%d differ" what name max)
          [ 0; 1; 3; 64 ])
      [ "root"; "nr" ];
    true

(* The whole best table — cost, constructor and key of every class — must
   equal the oracle's, and so must the extracted terms and the candidate
   lists, after saturation and again in a stale state: unions not yet
   rebuilt, so rows still mention non-canonical ids, and the class of
   (Neg root) holds (Neg other) too, whose term is then a duplicate. *)
let prop_extract_matches_oracle =
  QCheck2.Test.make ~name:"extraction: worklist table == Bellman-Ford oracle" ~count:100
    QCheck2.Gen.(triple gen_term_src gen_term_src (int_range 1 5))
    (fun (src, other, iters) ->
      let eng = E.Engine.create () in
      ignore (E.run_string eng math_schema);
      ignore
        (E.run_string eng
           (Printf.sprintf
              "(define root %s) (define other %s) (define nr (Neg root)) (define no (Neg other))"
              src other));
      ignore (E.run_string eng extraction_rules);
      ignore (E.run_string eng (Printf.sprintf "(run %d)" iters));
      let db = E.Engine.database eng in
      let union a b =
        ignore (E.Engine.union_values eng (E.Engine.eval_call eng a []) (E.Engine.eval_call eng b []))
      in
      oracle_agrees "saturated" eng db
      && begin
        union "root" "other";
        union "nr" "no";
        oracle_agrees "unrebuilt unions" eng db
      end)

let test_extract_math_suite_oracle () =
  let eng = E.Engine.create ~scheduler:E.Engine.backoff_default () in
  ignore (E.run_string eng (Math_suite.egglog_program ()));
  List.iter
    (fun iters ->
      ignore (E.Engine.run_iterations eng iters);
      let db = E.Engine.database eng in
      match Ref_extract.first_mismatch db with
      | None -> ()
      | Some id ->
        Alcotest.failf "math suite after %d more iteration(s): %s" iters
          (Ref_extract.describe db id))
    [ 0; 2; 2; 2 ]

(* Every kind of state change between two extractions — run, union, set,
   delete, push/pop, a rolled-back transaction, a failing command — must
   be seen by the next extraction: it equals a memo-free recomputation,
   and the expected cost shows the change really moved the answer. With
   no change in between, the memo is hit. *)
let test_extract_memo_invalidation () =
  let eng = E.Engine.create () in
  ignore (E.run_string eng math_schema);
  ignore
    (E.run_string eng
       {|
  (define root (Add (Mul (Num 2) (Var "x")) (Neg (Num 3))))
  (function f (i64) i64)
  (set (f 0) 1)
  (rewrite (Neg (Num n)) (Num (- 0 n)))
|});
  let root () = E.Engine.eval_call eng "root" [] in
  let hits () =
    Option.value ~default:0
      (List.assoc_opt "extract.memo_hits" (E.Telemetry.snapshot ()).E.Telemetry.sn_counters)
  in
  let expect what cost =
    let got = E.Engine.extract_value eng (root ()) in
    let variants = E.Engine.extract_candidates eng (root ()) ~max:8 in
    let db = E.Engine.database eng in
    let table = E.Extract.compute db in
    Alcotest.(check bool) (what ^ ": extract = recomputation") true
      (got = E.Extract.extract table db (root ()));
    Alcotest.(check bool) (what ^ ": candidates = recomputation") true
      (variants = E.Extract.candidates table db (root ()) ~max:8);
    Alcotest.(check (option int)) (what ^ ": cost") (Some cost)
      (Option.map (fun (r : E.Extract.result) -> r.E.Extract.cost) got)
  in
  let run src = ignore (E.run_string eng src) in
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      expect "initial" 6;
      let h0 = hits () in
      ignore (E.Engine.extract_value eng (root ()));
      ignore (E.Engine.extract_candidates eng (root ()) ~max:8);
      Alcotest.(check int) "unchanged database hits the memo" 2 (hits () - h0);
      run "(run 1)";
      expect "run" 5;
      run "(union root (Add (Num 1) (Num 1)))";
      expect "union" 3;
      run "(push)";
      run "(union root (Neg (Num 0)))";
      expect "pushed scope" 2;
      run "(pop)";
      expect "pop" 3;
      (match
         E.Engine.with_transaction eng (fun () ->
             run {|(union root (Var "z"))|};
             expect "inside transaction" 1;
             failwith "abort")
       with
       | () -> Alcotest.fail "transaction should have failed"
       | exception E.Engine.Egglog_error _ -> ());
      expect "rolled-back transaction" 3;
      (match run "(set (f 0) 2)" with
       | () -> Alcotest.fail "conflicting set should have failed"
       | exception E.Engine.Egglog_error _ -> ());
      expect "failing command" 3;
      run {|(set (Var "y") root)|};
      expect "set" 1;
      run {|(delete (Var "y"))|};
      expect "delete" 3)

(* Rollback then continue == never ran. Engine A runs a prefix, then a
   unit that fails, then a suffix; engine B runs the prefix and the suffix
   only. Dumps cannot see the timestamp log, the union-find layout or the
   proof forest, so besides the dump the two must agree on the timestamp,
   the id count, each table's row count and log length, every id's
   representative, every class's proof-forest edges, the modeled bytes
   and the declared sorts, right after the failing unit and after the
   suffix; on the suffix's outputs, run reports and join-plan rebuilds; on
   explanations; and on all of it again after popping into the database
   the prefix pushed. Each failing unit writes before it
   fails, through one of: a merge conflict, a failed check, a primitive
   error mid-run, a budget stop inside [with_transaction], a union-heavy
   run (path compression must be undone), a declaration, and an
   (include ...) that pops into the stacked database and mutates it. *)
let rollback_header =
  {|
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
    (datatype Math (Num i64) (Add Math Math))
    (rewrite (Add a b) (Add b a))
    (rule ((= e (Add (Num a) (Num b))) (< (+ a b) 24)) ((union e (Num (+ a b)))))
    (function g (i64) i64 :merge (max old new))
    (function f (i64) i64)
    (function h (i64) Math)
    (relation trigger (i64))
    (rule ((trigger x) (path x y)) ((edge y (/ y (- x x)))))
    (relation grow (i64))
    (rule ((grow n)) ((grow (+ n 1))))
    (set (f 0) 1)
    (set (g 0) 0)
    (Add (Num 0) (Num 1)) (Add (Num 2) (Num 3)) (Add (Num 4) (Num 5))
    (Add (Num 6) (Num 7)) (Add (Num 8) (Num 9))
  |}

type rb_op =
  | Edge of int * int
  | Union of int * int
  | Term of int * int
  | Set_g of int * int
  | Run of int
  | Explain of int * int

let rb_op_src = function
  | Edge (a, b) -> Printf.sprintf "(edge %d %d)" a b
  | Union (a, b) -> Printf.sprintf "(union (Num %d) (Num %d))" a b
  | Term (a, b) -> Printf.sprintf "(Add (Num %d) (Num %d))" a b
  | Set_g (a, b) -> Printf.sprintf "(set (g %d) %d)" a b
  | Run k -> Printf.sprintf "(run %d)" k
  | Explain (a, b) -> Printf.sprintf "(explain (Num %d) (Num %d))" a b

let gen_rb_op =
  QCheck2.Gen.(
    let small = int_range 0 9 in
    frequency
      [
        (4, map2 (fun a b -> Edge (a, b)) small small);
        (3, map2 (fun a b -> Union (a, b)) small small);
        (2, map2 (fun a b -> Term (a, b)) small small);
        (2, map2 (fun a b -> Set_g (a, b)) small small);
        (1, map (fun k -> Run k) (int_range 1 3));
        (1, map2 (fun a b -> Explain (a, b)) small small);
      ])

let n_failing_units = 9

type rb_case = {
  rb_before_push : rb_op list;
  rb_after_push : rb_op list;
  rb_unit : int;
  rb_unit_ops : rb_op list;
  rb_unions : (int * int) list;
  rb_suffix : rb_op list;
}

let gen_rb_case =
  QCheck2.Gen.(
    let ops n = list_size (int_range 0 n) gen_rb_op in
    let ids = pair (int_range 0 9) (int_range 0 9) in
    map3
      (fun (b, a) (u, uo, un) s ->
        {
          rb_before_push = b;
          rb_after_push = a;
          rb_unit = u;
          rb_unit_ops = uo;
          rb_unions = un;
          rb_suffix = s;
        })
      (pair (ops 6) (ops 8))
      (triple (int_range 0 (n_failing_units - 1)) (ops 5) (list_size (int_range 5 12) ids))
      (ops 8))

let rb_include_file =
  lazy
    (let path = Filename.temp_file "egglog-rollback" ".egg" in
     Out_channel.with_open_text path (fun oc ->
         output_string oc
           {|(pop)
             (set (g 0) 9)
             (edge 7 8) (edge 8 7) (Num 77) (union (Num 1) (Num 2))
             (run 2)
             (push)
             (edge 9 9)
             (check (edge 300 300))|});
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

let rb_run eng src =
  match E.run_string eng src with
  | outs -> String.concat "|" outs
  | exception E.Engine.Egglog_error msg -> "error: " ^ msg

(* The failing units; each writes first and must raise. *)
let rb_failing_unit eng c =
  let run src = ignore (E.run_string eng src) in
  let ops () =
    run "(set (g 0) 7)";
    List.iter (fun op -> run (rb_op_src op)) c.rb_unit_ops
  in
  let txn f = E.Engine.with_transaction eng f in
  match c.rb_unit with
  | 0 -> txn (fun () -> ops (); run "(run 1)"; run "(set (f 0) 2)")
  | 1 -> run "(check (= (h 1) (h 2)))"
  | 2 -> txn (fun () -> ops (); run "(trigger 0) (edge 0 1) (run 5)")
  | 3 ->
    txn (fun () ->
        ops ();
        let limit = E.Engine.total_rows eng + 25 in
        let (), reports =
          E.Engine.collect_reports eng (fun () ->
              run "(grow 0)";
              run (Printf.sprintf "(run 200 :node-limit %d)" limit))
        in
        if
          List.exists
            (fun (r : E.Engine.run_report) ->
              match r.E.Engine.stop_reason with E.Engine.Node_limit _ -> true | _ -> false)
            reports
        then failwith "budget stop: roll the request back")
  | 4 ->
    txn (fun () ->
        List.iter (fun (a, b) -> run (Printf.sprintf "(union (Num %d) (Num %d))" a b)) c.rb_unions;
        run "(run 2)";
        ops ();
        run {|(panic "abort after unions")|})
  | 5 -> run "(datatype T (A i64) (B Nonexistent))"
  | 6 ->
    txn (fun () ->
        run "(sort Z) (function hz (i64) Z) (relation fresh (i64))";
        run "(fresh 1) (hz 1) (rule ((fresh x)) ((edge x x)))";
        ops ();
        run "(run 2)";
        run {|(panic "abort after declarations")|})
  | 7 -> run (Printf.sprintf "(include %S)" (Lazy.force rb_include_file))
  | _ -> txn (fun () -> run (Printf.sprintf "(include %S)" (Lazy.force rb_include_file)))

let rb_state eng =
  let db = E.Engine.database eng in
  let tables = ref [] in
  E.Database.iter_tables db (fun t ->
      tables :=
        (E.Symbol.name (E.Table.func t).E.Schema.name, E.Table.length t, E.Table.log_length t)
        :: !tables);
  let reps =
    List.init (E.Database.n_ids db) (fun i ->
        E.Value.to_string (E.Database.canon db (E.Value.VId i)))
  in
  (* every class's proof-forest edges, read without walking them *)
  let edges =
    List.init (E.Database.n_ids db) (fun i ->
        if E.Database.canon db (E.Value.VId i) <> E.Value.VId i then []
        else
          List.map
            (fun (s : E.Proof_forest.step) ->
              Format.asprintf "%d-%d:%a" s.E.Proof_forest.from_id s.E.Proof_forest.to_id
                E.Proof_forest.pp_reason s.E.Proof_forest.why)
            (E.Database.class_history db (E.Value.VId i)))
  in
  ( (E.Serialize.dump_string eng, E.Database.timestamp db, E.Database.n_ids db),
    (List.rev !tables, String.concat " " reps, edges, E.Engine.modeled_bytes eng),
    List.map (fun s -> E.Database.is_sort db (E.Symbol.intern s)) [ "T"; "Z" ] )

(* Explanations read the proof forest; they run last since they may
   insert the terms they name. *)
let rb_explain eng =
  List.init 9 (fun i -> rb_run eng (Printf.sprintf "(explain (Num %d) (Num %d))" i (i + 1)))

(* The rules' cached join plans are engine state too: a rollback that kept
   plans built inside the transaction would replan (or not) differently
   during the suffix, which these counters show. *)
let rb_counting_plans f =
  let count name =
    Option.value ~default:0 (List.assoc_opt name (E.Telemetry.snapshot ()).E.Telemetry.sn_counters)
  in
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      let result = f () in
      (result, (count "join.plans_built", count "join.replans")))

let rb_session c ~jobs ~fail =
  let eng = E.Engine.create ~jobs () in
  let run_ops ops = List.iter (fun op -> ignore (rb_run eng (rb_op_src op))) ops in
  ignore (E.run_string eng rollback_header);
  run_ops c.rb_before_push;
  ignore (E.run_string eng "(push)");
  run_ops c.rb_after_push;
  if fail then begin
    match rb_failing_unit eng c with
    | () -> QCheck2.Test.fail_reportf "failing unit %d did not fail" c.rb_unit
    | exception E.Engine.Egglog_error _ -> ()
  end;
  let after_unit = rb_state eng in
  let (outputs, reports), planning =
    rb_counting_plans (fun () ->
        E.Engine.collect_reports eng (fun () ->
            List.map (fun op -> rb_run eng (rb_op_src op)) c.rb_suffix))
  in
  let after_suffix = (rb_state eng, rb_explain eng) in
  let popped = rb_run eng "(pop)" in
  ( after_unit,
    outputs,
    List.map report_fingerprint reports,
    planning,
    after_suffix,
    popped,
    (rb_state eng, rb_explain eng) )

let print_rb_case c =
  let ops l = String.concat " " (List.map rb_op_src l) in
  Printf.sprintf "prefix: %s (push) %s\nunit %d: ops %s; unions %s\nsuffix: %s"
    (ops c.rb_before_push) (ops c.rb_after_push) c.rb_unit (ops c.rb_unit_ops)
    (String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d=%d" a b) c.rb_unions))
    (ops c.rb_suffix)

let prop_rollback_never_ran =
  QCheck2.Test.make ~name:"rollback then continue == never ran (jobs 1, 2)" ~count:120
    ~print:print_rb_case gen_rb_case (fun c ->
      List.for_all
        (fun jobs -> rb_session c ~jobs ~fail:true = rb_session c ~jobs ~fail:false)
        [ 1; 2 ])

(* Table scans inherit the row map's iteration order, so it must be
   exactly [Value.Key_tbl]'s (fixed-count workloads depend on it), and an
   undo must restore it exactly, bucket growth included. 120 keys against
   16 initial buckets force several doublings. *)
let prop_row_map_order =
  let gen_ops =
    QCheck2.Gen.(
      list_size (int_range 0 150) (pair bool (int_range 0 120)))
  in
  QCheck2.Test.make ~name:"row map: Key_tbl iteration order, exact undo" ~count:300
    QCheck2.Gen.(triple gen_ops gen_ops gen_ops)
    (fun (prefix, mid, suffix) ->
      let key k = [| E.Value.VInt k; E.Value.VInt (k * 7) |] in
      let apply_map m (add, k) =
        match E.Row_map.find_opt m (key k) with
        | None -> if add then E.Row_map.add m (key k) k
        | Some _ -> if not add then E.Row_map.remove m (key k)
      in
      let apply_tbl t (add, k) =
        if add then (if not (E.Value.Key_tbl.mem t (key k)) then E.Value.Key_tbl.replace t (key k) k)
        else E.Value.Key_tbl.remove t (key k)
      in
      let order_map m = List.rev (E.Row_map.fold (fun _ v acc -> v :: acc) m []) in
      let order_tbl t = List.rev (E.Value.Key_tbl.fold (fun _ v acc -> v :: acc) t []) in
      let m = E.Row_map.create 0 and t = E.Value.Key_tbl.create 0 in
      List.iter (apply_map m) (prefix @ mid @ suffix);
      List.iter (apply_tbl t) (prefix @ mid @ suffix);
      let undone = E.Row_map.create 0 and never = E.Row_map.create 0 in
      List.iter (apply_map undone) prefix;
      List.iter (apply_map never) prefix;
      E.Row_map.arm undone;
      List.iter (apply_map undone) mid;
      E.Row_map.undo undone;
      let same_after_undo =
        order_map undone = order_map never && E.Row_map.length undone = E.Row_map.length never
      in
      List.iter (apply_map undone) suffix;
      List.iter (apply_map never) suffix;
      order_map m = order_tbl t
      && E.Row_map.length m = E.Value.Key_tbl.length t
      && same_after_undo
      && order_map undone = order_map never)

(* The same contract one layer down, on a bare table: undo then continue
   == never ran, and commit == no trail at all. Few keys and rare stamp
   bumps make same-stamp remove/re-insert pairs (revivals) common, the
   case where an insert re-points an old log slot. Every delta window is
   compared through both walks. *)
type tb_op = T_set of int * int | T_remove of int | T_bump

let gen_tb_ops =
  QCheck2.Gen.(
    list_size (int_range 0 25)
      (frequency
         [
           (5, map2 (fun k v -> T_set (k, v)) (int_range 0 5) (int_range 0 3));
           (3, map (fun k -> T_remove k) (int_range 0 5));
           (1, pure T_bump);
         ]))

let tb_func =
  {
    E.Schema.name = E.Symbol.intern "tb";
    arg_tys = [| E.Ty.Int |];
    ret_ty = E.Ty.Int;
    merge = E.Schema.Merge_panic;
    default = E.Schema.Default_panic;
    cost = 1;
    is_relation = false;
  }

let tb_apply t stamp = function
  | T_set (k, v) -> ignore (E.Table.set_raw t [| E.Value.VInt k |] (E.Value.VInt v) ~stamp:!stamp)
  | T_remove k -> E.Table.remove t [| E.Value.VInt k |]
  | T_bump -> incr stamp

let tb_observe t stamp =
  let collect walk lo =
    let acc = ref [] in
    walk t ~lo ~hi:(stamp + 1) (fun key (row : E.Table.row) ->
        acc := (E.Value.to_string key.(0), E.Value.to_string row.E.Table.value, row.E.Table.stamp) :: !acc);
    List.rev !acc
  in
  ( List.init (stamp + 2) (fun lo -> (collect E.Table.iter_delta lo, collect E.Table.iter_range lo)),
    (E.Table.length t, E.Table.log_length t, E.Table.modeled_bytes t),
    (E.Table.removals t, E.Table.value_updates t) )

let prop_table_trail =
  QCheck2.Test.make ~name:"table trail: undo == never ran, commit == no trail" ~count:500
    QCheck2.Gen.(triple gen_tb_ops gen_tb_ops gen_tb_ops)
    (fun (prefix, mid, suffix) ->
      let session ~trail ~undo =
        let t = E.Table.create tb_func and stamp = ref 0 in
        List.iter (tb_apply t stamp) prefix;
        let stamp0 = !stamp in
        if trail then E.Table.begin_trail t;
        if trail || not undo then List.iter (tb_apply t stamp) mid;
        if trail then begin
          let v = E.Table.version t in
          if undo then begin
            E.Table.undo_trail t;
            stamp := stamp0;
            if E.Table.version t <= v then QCheck2.Test.fail_report "undo rewound the version"
          end
          else E.Table.end_trail t
        end;
        let after = tb_observe t !stamp in
        List.iter (tb_apply t stamp) suffix;
        (after, tb_observe t !stamp)
      in
      session ~trail:true ~undo:true = session ~trail:false ~undo:true
      && session ~trail:true ~undo:false = session ~trail:false ~undo:false)

(* Distinct counts are kept until a table's size bucket moves, so they
   depend on when the last recount ran, and a rollback or a (pop) must
   restore them like any other state. Engine A runs every op; engine B
   skips the failing read-only units and the (push) … (pop) blocks. Both
   must report the same [Database.table_stats] at every [St_stats] and at
   the end. A failing unit reads [r] and [s] only — a failed check, alone
   or inside [with_transaction] — so all it rolls back is a recount its
   read triggered. *)
type st_op =
  | St_fact of char * int * int
  | St_stats
  | St_fail_check
  | St_fail_txn
  | St_block of st_op list

let rec st_op_src = function
  | St_fact (rel, a, b) -> Printf.sprintf "(%c %d %d)" rel a b
  | St_stats -> "stats"
  | St_fail_check -> "(check (r 100 100) (s 100 100))"
  | St_fail_txn -> "txn(" ^ st_op_src St_fail_check ^ " abort)"
  | St_block ops -> "(push) " ^ String.concat " " (List.map st_op_src ops) ^ " (pop)"

let gen_st_ops =
  QCheck2.Gen.(
    let fact = map3 (fun rel a b -> St_fact (rel, a, b)) (oneofl [ 'r'; 's' ]) (int_range 0 9) (int_range 0 9) in
    let flat =
      frequency
        [ (8, fact); (3, pure St_stats); (2, pure St_fail_check); (1, pure St_fail_txn) ]
    in
    list_size (int_range 0 40)
      (frequency [ (12, flat); (1, map (fun ops -> St_block ops) (list_size (int_range 0 8) flat)) ]))

let st_stats eng =
  let db = E.Engine.database eng in
  List.map
    (fun name ->
      match E.Database.find_func db (E.Symbol.intern name) with
      | Some t -> E.Database.table_stats db t
      | None -> (0, [||]))
    [ "r"; "s" ]

let st_session ops ~skip =
  let eng = E.Engine.create () in
  let run src = ignore (E.run_string eng src) in
  run "(relation r (i64 i64)) (relation s (i64 i64))";
  let seen = ref [] in
  (* stats inside a block recount like any, but only engine A sees them *)
  let rec exec ?(in_block = false) op =
    match op with
    | St_fact _ -> run (st_op_src op)
    | St_stats ->
      let stats = st_stats eng in
      if not in_block then seen := stats :: !seen
    | (St_fail_check | St_fail_txn | St_block _) when skip -> ()
    | St_fail_check -> (
      match run (st_op_src op) with
      | () -> QCheck2.Test.fail_report "the check passed"
      | exception E.Engine.Egglog_error _ -> ())
    | St_fail_txn -> (
      match
        E.Engine.with_transaction eng (fun () ->
            (try run (st_op_src St_fail_check) with E.Engine.Egglog_error _ -> ());
            failwith "abort")
      with
      | () -> QCheck2.Test.fail_report "the transaction committed"
      | exception E.Engine.Egglog_error _ -> ())
    | St_block ops ->
      run "(push)";
      List.iter (exec ~in_block:true) ops;
      run "(pop)"
  in
  List.iter (fun op -> exec op) ops;
  (List.rev !seen, st_stats eng)

let prop_distincts_restored =
  QCheck2.Test.make ~name:"distinct counts: rollback and (pop) == never ran" ~count:300
    ~print:(fun ops -> String.concat " " (List.map st_op_src ops))
    gen_st_ops
    (fun ops -> st_session ops ~skip:false = st_session ops ~skip:true)

(* Within a size bucket the counts are served from the cache; crossing a
   power of two recounts, and the counters say so. *)
let test_distincts_bucketed () =
  let t = E.Table.create tb_func in
  let set k v = ignore (E.Table.set_raw t [| E.Value.VInt k |] (E.Value.VInt v) ~stamp:1) in
  let counters () =
    let c = (E.Telemetry.snapshot ()).E.Telemetry.sn_counters in
    let get name = Option.value ~default:0 (List.assoc_opt name c) in
    (get "join.distinct_recounts", get "join.distinct_rows_scanned")
  in
  E.Telemetry.reset ();
  E.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      E.Telemetry.disable ();
      E.Telemetry.reset ())
    (fun () ->
      for k = 0 to 4 do set k k done;
      let d5 = E.Table.column_distincts t in
      Alcotest.(check (array int)) "5 rows counted" [| 5; 5 |] d5;
      Alcotest.(check (pair int int)) "one recount of 5 rows" (1, 5) (counters ());
      (* 6 rows: same bucket (4..7), so the 5-row counts are served *)
      set 5 0;
      Alcotest.(check bool) "current within the bucket" true (E.Table.distincts_current t);
      Alcotest.(check bool) "same counts served" true (E.Table.column_distincts t == d5);
      Alcotest.(check (pair int int)) "no recount" (1, 5) (counters ());
      (* 8 rows: the bucket moves *)
      set 6 1;
      set 7 7;
      Alcotest.(check bool) "stale past the boundary" false (E.Table.distincts_current t);
      Alcotest.(check (array int)) "recounted at 8 rows" [| 8; 6 |] (E.Table.column_distincts t);
      Alcotest.(check (pair int int)) "second recount of 8 rows" (2, 13) (counters ()))

let () =
  Printf.printf "property-test seed: %d (override with EGGLOG_TEST_SEED=<n>)\n%!" test_seed;
  try
    Alcotest.run ~and_exit:false "engine-props"
    [
      ( "planner",
        [
          Alcotest.test_case "cartesian product" `Quick test_planner_handles_cartesian;
          Alcotest.test_case "triangle query" `Quick test_planner_shared_var_chain;
          Alcotest.test_case "nonlinear self join" `Quick test_self_join_nonlinear;
          Alcotest.test_case "cache key distinguishes incarnations" `Quick
            test_cache_key_incarnations;
          Alcotest.test_case "cache key structured constants" `Quick
            test_cache_key_structured_consts;
        ] );
      ( "differential",
        List.map to_alcotest
          [
            prop_diff_full_ranges;
            prop_diff_delta_ranges;
            prop_jobs_differential;
            prop_jobs_differential_limits;
            prop_rollback_never_ran;
            prop_table_trail;
            prop_row_map_order;
            prop_distincts_restored;
          ] );
      ( "statistics",
        [ Alcotest.test_case "distinct counts bucketed" `Quick test_distincts_bucketed ] );
      ( "scheduling",
        [ Alcotest.test_case "backoff unbans" `Quick test_backoff_unbans ] );
      ( "primitives",
        [
          Alcotest.test_case "i64 algebra" `Quick test_i64_primitive_algebra;
          Alcotest.test_case "rational algebra" `Quick test_rational_algebra;
        ] );
      ( "properties",
        List.map to_alcotest
          [
            prop_extraction_sound_and_consistent;
            prop_push_pop_nesting;
            prop_run_is_idempotent_at_fixpoint;
          ] );
      ( "extraction",
        to_alcotest prop_extract_matches_oracle
        :: [
             Alcotest.test_case "math suite: worklist == oracle" `Quick
               test_extract_math_suite_oracle;
             Alcotest.test_case "memo invalidation" `Quick test_extract_memo_invalidation;
           ] );
    ]
  with e ->
    Printf.eprintf "\nproperty failure: reproduce with EGGLOG_TEST_SEED=%d\n%!" test_seed;
    raise e
