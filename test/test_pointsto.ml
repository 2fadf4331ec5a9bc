(* Steensgaard analyses (§6.1): the egglog encoding, the reference
   hand-written analysis, and the Soufflé-style encodings must agree
   (except cclyzer++, which is unsound by construction). *)

module Ir = Pointsto.Ir
module Progen = Pointsto.Progen
module Reference = Pointsto.Reference
module Egglog_enc = Pointsto.Egglog_enc
module Datalog_enc = Pointsto.Datalog_enc
module Andersen = Pointsto.Andersen

let sites_to_string sets =
  String.concat ";"
    (Array.to_list
       (Array.map (fun l -> "[" ^ String.concat "," (List.map string_of_int l) ^ "]") sets))

let tiny_program =
  (* v0 = &h0; v1 = &h1; v2 = v0; *v2 = v1; v3 = *v0; v4 = &h2 *)
  {
    Ir.n_vars = 5;
    n_sites = 3;
    n_fields = 2;
    insts =
      [|
        Ir.Alloc (0, 0); Ir.Alloc (1, 1); Ir.Copy (2, 0); Ir.Store (2, 1); Ir.Load (3, 0);
        Ir.Alloc (4, 2);
      |];
  }

let test_reference_tiny () =
  let st = Reference.analyze tiny_program in
  let sites = Reference.var_sites tiny_program st in
  Alcotest.(check (list int)) "v0 -> h0" [ 0 ] sites.(0);
  Alcotest.(check (list int)) "v2 -> h0 (copy)" [ 0 ] sites.(2);
  Alcotest.(check (list int)) "v3 -> h1 (through store/load)" [ 1 ] sites.(3);
  Alcotest.(check (list int)) "v4 -> h2 (independent)" [ 2 ] sites.(4)

let test_reference_unification () =
  (* one pointer to two allocs unifies them *)
  let p =
    {
      Ir.n_vars = 3;
      n_sites = 2;
      n_fields = 1;
      insts = [| Ir.Alloc (0, 0); Ir.Alloc (0, 1); Ir.Alloc (1, 0) |];
    }
  in
  let st = Reference.analyze p in
  let sites = Reference.var_sites p st in
  Alcotest.(check (list int)) "v0 sees both" [ 0; 1 ] sites.(0);
  Alcotest.(check (list int)) "v1 dragged in (h0 ~ h1)" [ 0; 1 ] sites.(1);
  Alcotest.(check (list int)) "v2 nothing" [] sites.(2)

let test_reference_store_before_alloc () =
  (* *p = q before p has an allocation: unification must still link them *)
  let p =
    {
      Ir.n_vars = 5;
      n_sites = 2;
      n_fields = 1;
      insts =
        [|
          Ir.Copy (1, 0);  (* p2 = p1 *)
          Ir.Store (0, 2);  (* *p1 = q *)
          Ir.Load (3, 1);  (* d = *p2 *)
          Ir.Alloc (3, 0);  (* d = &h0 *)
          Ir.Alloc (2, 1);  (* q = &h1 *)
        |];
    }
  in
  let st = Reference.analyze p in
  let sites = Reference.var_sites p st in
  Alcotest.(check (list int)) "d and q unified -> both sites" [ 0; 1 ] sites.(3);
  Alcotest.(check (list int)) "q too" [ 0; 1 ] sites.(2)

let test_egglog_matches_reference () =
  let rand_programs =
    List.concat_map
      (fun size -> List.map (fun seed -> Progen.generate ~size ~seed ()) [ 1; 2; 3; 4 ])
      [ 2; 4; 8 ]
  in
  List.iteri
    (fun i p ->
      Alcotest.(check bool) "valid program" true (Ir.validate p);
      let ref_sites = Reference.var_sites p (Reference.analyze p) in
      let eng, _report = Egglog_enc.analyze p in
      let egg_sites = Egglog_enc.var_sites p eng in
      Alcotest.(check string)
        (Printf.sprintf "program %d egglog = reference" i)
        (sites_to_string ref_sites) (sites_to_string egg_sites))
    rand_programs

let test_egglog_ni_matches () =
  let p = Progen.generate ~size:6 ~seed:7 () in
  let ref_sites = Reference.var_sites p (Reference.analyze p) in
  let eng, _ = Egglog_enc.analyze ~seminaive:false p in
  Alcotest.(check string) "egglogNI = reference" (sites_to_string ref_sites)
    (sites_to_string (Egglog_enc.var_sites p eng))

(* The benchmark's batch configuration — semi-naive fixpoint over typed
   facts — at jobs > 1: search fans out across domains, apply and rebuild
   stay serial, and the result must not depend on the jobs count. *)
let test_egglog_jobs_differential () =
  let p = Progen.generate ~size:300 ~seed:11 () in
  let ref_sites = sites_to_string (Reference.var_sites p (Reference.analyze p)) in
  let run jobs =
    let eng, _ = Egglog_enc.analyze ~jobs p in
    (Egglog.Serialize.dump_string eng, sites_to_string (Egglog_enc.var_sites p eng))
  in
  let dump1, sites1 = run 1 in
  Alcotest.(check string) "jobs 1 = reference" ref_sites sites1;
  List.iter
    (fun jobs ->
      let dump, sites = run jobs in
      Alcotest.(check bool) (Printf.sprintf "jobs %d dump = jobs 1 dump" jobs) true (dump = dump1);
      Alcotest.(check string) (Printf.sprintf "jobs %d = reference" jobs) ref_sites sites)
    [ 2; 4 ]

let datalog_sites flavor p =
  let r = Datalog_enc.analyze flavor ~timeout_s:60.0 p in
  (match r.Datalog_enc.outcome with
   | Minidatalog.Fixpoint _ -> ()
   | Minidatalog.Timeout -> Alcotest.fail "datalog encoding timed out on a test-size program");
  Datalog_enc.var_sites r

let test_eqrel_encoding_sound () =
  List.iter
    (fun (size, seed) ->
      let p = Progen.generate ~size ~seed () in
      let ref_sites = Reference.var_sites p (Reference.analyze p) in
      Alcotest.(check string)
        (Printf.sprintf "eqrel = reference (size %d seed %d)" size seed)
        (sites_to_string ref_sites)
        (sites_to_string (datalog_sites Datalog_enc.Eqrel p)))
    [ (2, 1); (2, 2); (3, 3) ]

let test_patched_encoding_sound () =
  List.iter
    (fun (size, seed) ->
      let p = Progen.generate ~size ~seed () in
      let ref_sites = Reference.var_sites p (Reference.analyze p) in
      Alcotest.(check string)
        (Printf.sprintf "patched = reference (size %d seed %d)" size seed)
        (sites_to_string ref_sites)
        (sites_to_string (datalog_sites Datalog_enc.Patched p)))
    [ (2, 1); (2, 2); (3, 3); (4, 4); (6, 5) ]

let test_cclyzer_unsound () =
  (* cclyzer++ must be an under-approximation: never more sites than the
     reference, and strictly fewer where its missing contents-congruence
     bites (two stores through the same pointer and no healing load —
     the congruence bug the paper reports). *)
  let double_store =
    {
      Ir.n_vars = 4;
      n_sites = 3;
      n_fields = 1;
      insts =
        [|
          Ir.Alloc (0, 0);  (* p = &h0 *)
          Ir.Alloc (1, 1);  (* q1 = &h1 *)
          Ir.Alloc (2, 2);  (* q2 = &h2 *)
          Ir.Store (0, 1);  (* *p = q1 *)
          Ir.Store (0, 2);  (* *p = q2: reference unifies h1 ~ h2 *)
        |];
    }
  in
  let ref_sites = Reference.var_sites double_store (Reference.analyze double_store) in
  Alcotest.(check (list int)) "reference unifies q1's sites" [ 1; 2 ] ref_sites.(1);
  let cc_sites = datalog_sites Datalog_enc.Cclyzer double_store in
  Alcotest.(check (list int)) "cclyzer misses the unification" [ 1 ] cc_sites.(1);
  (* patched fixes exactly this *)
  let patched_sites = datalog_sites Datalog_enc.Patched double_store in
  Alcotest.(check (list int)) "patched agrees with reference" [ 1; 2 ] patched_sites.(1);
  (* and on random programs cclyzer never over-approximates *)
  List.iter
    (fun seed ->
      let p = Progen.generate ~size:6 ~seed () in
      let ref_sites = Reference.var_sites p (Reference.analyze p) in
      let cc_sites = datalog_sites Datalog_enc.Cclyzer p in
      Array.iteri
        (fun v sites ->
          List.iter
            (fun s ->
              if not (List.mem s ref_sites.(v)) then
                Alcotest.failf "cclyzer derived v%d -> h%d not in reference" v s)
            sites)
        cc_sites)
    [ 1; 2; 3; 4; 5 ]


let test_andersen_refines_steensgaard () =
  (* Andersen (subset-based) must be at least as precise as Steensgaard
     (unification-based): per-variable site sets are subsets, and on most
     programs strictly smaller somewhere (§6.1's precision trade-off). *)
  let strictly_finer = ref false in
  List.iter
    (fun seed ->
      let p = Progen.generate ~size:5 ~seed () in
      let steens = Reference.var_sites p (Reference.analyze p) in
      let anders = Andersen.var_sites p (Andersen.analyze p) in
      Array.iteri
        (fun v a_sites ->
          List.iter
            (fun s ->
              if not (List.mem s steens.(v)) then
                Alcotest.failf "andersen v%d -> h%d missing from steensgaard" v s)
            a_sites;
          if List.length a_sites < List.length steens.(v) then strictly_finer := true)
        anders)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "strictly more precise somewhere" true !strictly_finer

let test_andersen_datalog_matches_reference () =
  List.iter
    (fun (size, seed) ->
      let p = Progen.generate ~size ~seed () in
      let direct = Andersen.var_sites p (Andersen.analyze p) in
      let outcome, _, datalog = Andersen.datalog_analyze p in
      (match outcome with
       | Minidatalog.Fixpoint _ -> ()
       | Minidatalog.Timeout -> Alcotest.fail "andersen datalog timed out");
      Alcotest.(check string)
        (Printf.sprintf "andersen datalog = direct (size %d seed %d)" size seed)
        (sites_to_string direct) (sites_to_string datalog))
    [ (2, 1); (3, 2); (5, 3); (8, 4) ]

let test_generator_determinism () =
  let p1 = Progen.generate ~size:5 ~seed:9 () in
  let p2 = Progen.generate ~size:5 ~seed:9 () in
  Alcotest.(check bool) "same seed same program" true (p1 = p2);
  let p3 = Progen.generate ~size:5 ~seed:10 () in
  Alcotest.(check bool) "different seed different program" true (p1 <> p3)

let () =
  Alcotest.run "pointsto"
    [
      ( "reference",
        [
          Alcotest.test_case "tiny" `Quick test_reference_tiny;
          Alcotest.test_case "unification" `Quick test_reference_unification;
          Alcotest.test_case "store before alloc" `Quick test_reference_store_before_alloc;
        ] );
      ( "egglog",
        [
          Alcotest.test_case "matches reference" `Quick test_egglog_matches_reference;
          Alcotest.test_case "NI matches too" `Quick test_egglog_ni_matches;
          Alcotest.test_case "jobs 1/2/4 byte-identical, match reference" `Quick
            test_egglog_jobs_differential;
        ] );
      ( "datalog-encodings",
        [
          Alcotest.test_case "eqrel sound" `Quick test_eqrel_encoding_sound;
          Alcotest.test_case "patched sound" `Quick test_patched_encoding_sound;
          Alcotest.test_case "cclyzer unsound" `Quick test_cclyzer_unsound;
        ] );
      ( "andersen",
        [
          Alcotest.test_case "refines steensgaard" `Quick test_andersen_refines_steensgaard;
          Alcotest.test_case "datalog = direct" `Quick test_andersen_datalog_matches_reference;
        ] );
      ("generator", [ Alcotest.test_case "determinism" `Quick test_generator_determinism ]);
    ]
