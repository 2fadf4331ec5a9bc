(* Span recorder for the traced run. Spans are recorded from the
   benchmark's own code around each call into a layer's public API: name,
   start, end and parent, kept in memory and written out once the run
   ends. While disabled, [with_span] is a plain call. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let now = Egglog.Telemetry.now

let clear () =
  spans := [];
  next_id := 1;
  stack := []

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      spans := { id; name; parent; start; stop = now () } :: !spans;
      stack := List.tl !stack
    in
    Fun.protect ~finally:finish f
  end

(* Record a span whose interval was measured elsewhere (a phase split the
   engine reports), as a child of the innermost open span. *)
let record name ~start ~stop =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    spans := { id; name; parent; start; stop } :: !spans
  end

let all () = List.rev !spans

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed over all spans of that name. Children of
   one parent never overlap (the recorder is single-threaded). *)
let self_times ss =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    ss;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let self = s.stop -. s.start -. kids in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. self))
    ss;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let to_jsonl ss =
  let module J = Egglog.Telemetry.Json in
  String.concat ""
    (List.map
       (fun s ->
         J.to_string
           (J.Obj
              [
                ("id", J.Int s.id);
                ("name", J.Str s.name);
                ("parent", J.Int s.parent);
                ("start", J.Float s.start);
                ("end", J.Float s.stop);
              ])
         ^ "\n")
       ss)
