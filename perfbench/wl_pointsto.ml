(* The two Steensgaard workloads, both on a Progen program made from the
   benchmark's seed and both checked per variable against
   Pointsto.Reference on the full program.

   pointsto-batch loads the whole program through the typed API
   (Egglog_enc.load, one set_fact per instruction) and runs to fixpoint at
   jobs 2: unions and rebuild dominate, and it is the one workload where
   the domain pool fans out.

   pointsto-stream feeds the same kind of program to a real daemon
   (Egglog_server.Serve on its own domain) over a Unix socket, as text: a
   warm-up request with the analysis and a prefix of the facts, then the
   rest a few facts per request, each followed by (run 1000). One
   closed-loop client sends the next request only after the previous reply.
   The final state is read back through the daemon with a dump. *)

module E = Egglog
module P = Pointsto
module J = E.Telemetry.Json

let batch_size = 5000
let batch_jobs = 2

let stream_size = 150
let stream_prefix = 1000
let facts_per_request = 4

(* A points-to result: each variable's pointee class (-1 for none) and
   each class's sorted allocation sites. It holds the same sets as
   Reference.var_sites, but shares one list per class: at these sizes one
   class can hold thousands of sites that tens of thousands of variables
   point into, and a list per variable would take gigabytes. *)
type sites = { cls : int array; of_class : (int, int list) Hashtbl.t }

let sites_of r v = if r.cls.(v) < 0 then [] else Option.value ~default:[] (Hashtbl.find_opt r.of_class r.cls.(v))

let group add =
  let of_class = Hashtbl.create 1024 in
  add (fun c s -> Hashtbl.replace of_class c (s :: Option.value ~default:[] (Hashtbl.find_opt of_class c)));
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.sort compare l)) of_class;
  of_class

let reference_sites (p : P.Ir.program) =
  let st = P.Reference.analyze p in
  let find = Union_find.find st.uf in
  let cls =
    Array.init p.n_vars (fun v ->
        match (P.Reference.node_info st v).tgt with Some t -> find t | None -> -1)
  in
  { cls; of_class = group (fun add -> for s = 0 to p.n_sites - 1 do add (find (p.n_vars + s)) s done) }

(* The same, read straight from the engine's vpt and siteAlloc tables. *)
let engine_sites (p : P.Ir.program) eng =
  let db = E.Engine.database eng in
  let table name =
    match E.Database.find_func db (E.Symbol.intern name) with
    | Some t -> t
    | None -> failwith ("pointsto: no table " ^ name)
  in
  let class_of v = match E.Database.canon db v with E.Value.VId c -> c | _ -> -1 in
  let cls = Array.make p.n_vars (-1) in
  E.Table.iter
    (fun key (row : E.Table.row) ->
      match key with
      | [| E.Value.VInt v |] when v >= 0 && v < p.n_vars -> cls.(v) <- class_of row.value
      | _ -> ())
    (table "vpt");
  let of_class =
    group (fun add ->
        E.Table.iter
          (fun key (row : E.Table.row) ->
            match key with [| E.Value.VInt s |] -> add (class_of row.value) s | _ -> ())
          (table "siteAlloc"))
  in
  { cls; of_class }

type state = { prog : P.Ir.program; expected : sites }

let prepare ~size ~seed =
  let prog = P.Progen.generate ~size ~seed () in
  { prog; expected = reference_sites prog }

(* Every variable's site set must equal the reference's; each pair of
   classes is compared once. *)
let compare_sites st got =
  let n = st.prog.n_vars in
  let seen = Hashtbl.create 1024 in
  let bad = ref 0 in
  for v = 0 to n - 1 do
    let key = (got.cls.(v), st.expected.cls.(v)) in
    let same =
      match Hashtbl.find_opt seen key with
      | Some same -> same
      | None ->
        let same = sites_of got v = sites_of st.expected v in
        Hashtbl.replace seen key same;
        same
    in
    if not same then incr bad
  done;
  Wl.check (!bad = 0) (Printf.sprintf "pointsto: %d of %d variables differ from the reference" !bad n)

(* ---- pointsto-batch ---- *)

(* The time to an answer: load, fixpoint, read-back. *)
let answer_parts = [ "setup_s"; "run_s"; "readback_s" ]

(* Each round sets up this many engines and runs the last one, so set-up
   has enough samples for a median. *)
let setups_per_round = 3

let batch_round (ctx : Wl.ctx) st =
  let setup () =
    let setup_s, eng =
      Wl.timed "setup" (fun () ->
          Spans.with_span "pointsto.load" (fun () -> P.Egglog_enc.load ~jobs:batch_jobs st.prog))
    in
    Wl.sample ctx "setup_s" setup_s;
    eng
  in
  for _ = 2 to setups_per_round do
    ignore (setup ())
  done;
  let eng = setup () in
  let _, report =
    Wl.timed "engine.run" (fun () ->
        let start = Wl.now () in
        let r = E.Engine.run_iterations eng 1000 in
        Wl.report_phases ctx ~start r;
        r)
  in
  Wl.iteration_units ctx "run_s" report;
  let read_s, got = Wl.timed "readback" (fun () -> engine_sites st.prog eng) in
  Wl.layer ctx "readback_s" read_s;
  Wl.unit_sample ctx "readback_s" 0 read_s;
  Stats.attempt ctx.ledger (fun () ->
      match report.stop_reason with
      | E.Engine.Saturated -> compare_sites st got
      | r -> Error ("pointsto-batch: stopped by " ^ E.Engine.describe_stop_reason r));
  Wl.set_layer ctx "rows" (float_of_int (E.Engine.total_rows eng));
  Wl.set_layer ctx "classes" (float_of_int (E.Engine.n_classes eng))

(* ---- pointsto-stream ---- *)

let fact_text = function
  | P.Ir.Alloc (v, s) -> Printf.sprintf "(allocI %d %d)" v s
  | P.Ir.Copy (d, s) -> Printf.sprintf "(copyI %d %d)" d s
  | P.Ir.Store (p, q) -> Printf.sprintf "(storeI %d %d)" p q
  | P.Ir.Load (d, p) -> Printf.sprintf "(loadI %d %d)" d p
  | P.Ir.Field (d, p, f) -> Printf.sprintf "(fieldI %d %d %d)" d p f

let facts_text insts = String.concat " " (Array.to_list (Array.map fact_text insts))

(* The warm-up program and the stream of small requests that completes it. *)
let stream_programs st =
  let insts = st.prog.insts in
  let n = Array.length insts in
  let prefix = min stream_prefix n in
  let warm = P.Egglog_enc.program_text ^ "\n" ^ facts_text (Array.sub insts 0 prefix) ^ " (run 1000)" in
  let rec chunks i acc =
    if i >= n then List.rev acc
    else
      let k = min facts_per_request (n - i) in
      chunks (i + k) ((facts_text (Array.sub insts i k) ^ " (run 1000)") :: acc)
  in
  (warm, prefix, chunks prefix [])

type server = { sock : string; mutable next_id : int }

(* Every request goes through here: one span per round trip, and the
   client-observed time summed so the traced run can split it into server
   time and client-side waiting. *)
let rpc (ctx : Wl.ctx) srv c fields =
  let id = srv.next_id in
  srv.next_id <- id + 1;
  let dt, r = Wl.timed "server.rpc" (fun () -> Bench_serve.rpc c (("id", J.Int id) :: fields)) in
  Wl.layer ctx "client.rpc_s" dt;
  Wl.layer ctx "client.rpcs" 1.0;
  (dt, r)

let run_request ctx srv c ~session program =
  rpc ctx srv c
    [ ("op", J.Str "run"); ("session", J.Str session); ("program", J.Str program); ("jobs", J.Int 1) ]

let reply_error r =
  match J.member "error" r with Some e -> J.to_string e | None -> "malformed reply"

(* Read the session's final state back through the daemon and rebuild the
   per-variable site sets from it. *)
let read_back ctx srv c ~session st =
  let _, r = rpc ctx srv c [ ("op", J.Str "dump"); ("session", J.Str session) ] in
  match J.member "dump" r with
  | Some (J.Str dump) ->
    let eng = E.Engine.create () in
    ignore (E.run_string eng P.Egglog_enc.program_text);
    E.Serialize.load_string eng dump;
    Ok (engine_sites st.prog eng)
  | _ -> Error ("pointsto-stream: dump failed: " ^ reply_error r)

let close_session ctx srv c session =
  let _, r = rpc ctx srv c [ ("op", J.Str "close-session"); ("session", J.Str session) ] in
  Stats.attempt ctx.ledger (fun () ->
      Wl.check (Bench_serve.is_ok r) ("pointsto-stream: close-session: " ^ reply_error r))

(* One round is fresh sessions on one fresh connection, so every round
   sends the daemon the same requests. The warm-up is repeated on
   throwaway sessions so set-up has enough samples for a median; the last
   session takes the stream. *)
let stream_round srv round_no (ctx : Wl.ctx) st =
  let warm, prefix, steps = stream_programs st in
  let c = Bench_serve.connect srv.sock in
  Fun.protect ~finally:(fun () -> Bench_serve.close_client c) @@ fun () ->
  let warm_up k =
    let session = Printf.sprintf "stream-%d-%d" round_no k in
    let setup_s, (_, r) = Wl.timed "setup" (fun () -> run_request ctx srv c ~session warm) in
    Wl.sample ctx "setup_s" setup_s;
    Wl.layer ctx "setup.per_fact_us" (setup_s /. float_of_int prefix *. 1e6 /. float_of_int setups_per_round);
    Stats.attempt ctx.ledger (fun () ->
        Wl.check (Bench_serve.is_ok r) ("pointsto-stream: warm-up: " ^ reply_error r));
    session
  in
  for k = 2 to setups_per_round do
    close_session ctx srv c (warm_up k)
  done;
  let session = warm_up 1 in
  let _, () =
    Wl.timed "stream" (fun () ->
        List.iteri
          (fun i program ->
            let dt, r = run_request ctx srv c ~session program in
            Wl.sample ctx "req_ms" (dt *. 1000.0);
            Wl.unit_sample ctx "run_s" i dt;
            let int k = match J.member k r with Some (J.Int n) -> float_of_int n | _ -> 0.0 in
            Wl.set_layer ctx "rows" (int "rows");
            Wl.set_layer ctx "classes" (int "classes");
            Stats.attempt ctx.ledger (fun () ->
                Wl.check (Bench_serve.is_ok r) ("pointsto-stream: request: " ^ reply_error r)))
          steps)
  in
  let read_s, got = Wl.timed "readback" (fun () -> read_back ctx srv c ~session st) in
  Wl.layer ctx "readback_s" read_s;
  Wl.unit_sample ctx "readback_s" 0 read_s;
  Stats.attempt ctx.ledger (fun () -> Result.bind got (compare_sites st));
  close_session ctx srv c session

(* One daemon for the whole run, drained and joined on the way out. *)
let with_stream_server f = Bench_serve.with_server ~tune:Fun.id (fun sock -> f { sock; next_id = 1 })
