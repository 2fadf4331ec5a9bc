(* What every workload shares: the per-run context a round writes its
   samples, per-layer values and failures into, and the timing helpers
   that open a trace span around each layer call. *)

type ctx = {
  ledger : Stats.ledger;
  samples : (string, float list) Hashtbl.t;  (** every end-to-end sample, by metric *)
  units : (string * int, float list) Hashtbl.t;
      (** per-unit samples of a total (an iteration, a seed, a bench, a
          request), by metric and the unit's position in its round *)
  layer : (string, float) Hashtbl.t;  (** per-layer values of this round *)
}

let now = Egglog.Telemetry.now

let sample ctx name v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.samples name) in
  Hashtbl.replace ctx.samples name (v :: prev)

let samples ctx name = Option.value ~default:[] (Hashtbl.find_opt ctx.samples name)

(* One unit of a total that every round repeats in the same order. *)
let unit_sample ctx name i v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.units (name, i)) in
  Hashtbl.replace ctx.units (name, i) (v :: prev)

(* A total reported as the sum over its units of each unit's median across
   rounds. Every round does the same work, so this estimates one round's
   total while a stall during one round moves only that round's samples. *)
let robust_total ctx name =
  Hashtbl.fold (fun (n, _) vs acc -> if n = name then acc +. Stats.median vs else acc) ctx.units 0.0

(* Per-layer values add up over the calls of one round. *)
let layer ctx name v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt ctx.layer name) in
  Hashtbl.replace ctx.layer name (prev +. v)

let set_layer ctx name v = Hashtbl.replace ctx.layer name v

(* Time [f] inside a span named after the layer it calls into. *)
let timed name f =
  Spans.with_span name (fun () ->
      let t0 = now () in
      let v = f () in
      (now () -. t0, v))

let check cond why = if cond then Ok () else Error why

(* The engine's own account of a run: its phase split, summed, plus the
   phases recorded as child spans of the enclosing one so that the span
   tree attributes the run's time to search, apply and rebuild. *)
let report_phases ctx ~start (r : Egglog.Engine.run_report) =
  let s = ref 0.0 and a = ref 0.0 and b = ref 0.0 in
  List.iter
    (fun (it : Egglog.Engine.iteration_stat) ->
      s := !s +. it.it_search_seconds;
      a := !a +. it.it_apply_seconds;
      b := !b +. it.it_rebuild_seconds)
    r.iterations;
  layer ctx "search_s" !s;
  layer ctx "apply_s" !a;
  layer ctx "rebuild_s" !b;
  (* The phases run back to back per iteration; laid end to end they keep
     their true durations, which is all a self-time computation uses. *)
  let t = ref start in
  List.iter
    (fun (name, d) ->
      Spans.record name ~start:!t ~stop:(!t +. d);
      t := !t +. d)
    [ ("engine.search", !s); ("engine.apply", !a); ("engine.rebuild", !b) ]

(* Iteration times of a run as units of [name]. *)
let iteration_units ctx name (r : Egglog.Engine.run_report) =
  List.iteri (fun i (it : Egglog.Engine.iteration_stat) -> unit_sample ctx name i it.it_seconds) r.iterations

let run_matches (r : Egglog.Engine.run_report) =
  List.fold_left (fun acc (it : Egglog.Engine.iteration_stat) -> acc + it.it_matches) 0 r.iterations
