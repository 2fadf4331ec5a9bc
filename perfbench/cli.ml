(* Command line of the benchmark program. *)

let workloads = [ "math-eqsat"; "pointsto-batch"; "herbie-sound"; "pointsto-stream" ]

type args = {
  workload : string;
  seed : int;  (** the only source of generated inputs *)
  seconds : float;
  trace : bool;
  rev : string;
  spans : string option;  (** where a traced run writes its first traced round's spans *)
}

let usage =
  "usage: main.exe --workload (" ^ String.concat "|" workloads
  ^ ") --seed N --seconds S --trace 0|1 [--rev REV] [--spans FILE]"

let parse argv =
  let ( let* ) = Result.bind in
  let rec pairs acc = function
    | [] -> Ok acc
    | (("--workload" | "--seed" | "--seconds" | "--trace" | "--rev" | "--spans") as k) :: v :: rest
      ->
      pairs ((k, v) :: acc) rest
    | a :: _ -> Error ("unexpected argument " ^ a)
  in
  let* kv = pairs [] argv in
  let get k = Option.to_result ~none:("missing " ^ k) (List.assoc_opt k kv) in
  let int k =
    let* v = get k in
    Option.to_result ~none:(k ^ " wants an integer, got " ^ v) (int_of_string_opt v)
  in
  let* workload = get "--workload" in
  let* () = if List.mem workload workloads then Ok () else Error ("unknown workload " ^ workload) in
  let* seed = int "--seed" in
  let* seconds = int "--seconds" in
  let* () = if seconds >= 1 then Ok () else Error "--seconds must be at least 1" in
  let* trace =
    match get "--trace" with
    | Ok "0" -> Ok false
    | Ok "1" -> Ok true
    | Ok v -> Error ("--trace wants 0 or 1, got " ^ v)
    | Error e -> Error e
  in
  Ok
    {
      workload;
      seed;
      seconds = float_of_int seconds;
      trace;
      rev = Option.value ~default:"unknown" (List.assoc_opt "--rev" kv);
      spans = List.assoc_opt "--spans" kv;
    }
