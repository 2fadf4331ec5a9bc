(* Machine-speed calibration for end-to-end times.

   On a shared machine the speed of the whole host drifts: a fixed loop
   takes 10-30% longer for seconds to minutes at a time, the same for
   every program. Each round is therefore bracketed by a fixed kernel,
   and the round's end-to-end times are reported at a reference speed:
   multiplied by [reference_s] over the kernel's time measured around that
   round. A change to the program moves its times and not the kernel's, so
   it shows in full; a slower host moves both and cancels out.

   The kernel does what the engine does most (hash-table inserts and
   lookups, allocation of short-lived blocks) and nothing the engine's
   code can change. A full major collection before it keeps the garbage
   a round leaves behind from slowing it. *)

(* The kernel's time on a 2-core 2.1 GHz VM when the host is quiet. *)
let reference_s = 0.07

let kernel () =
  let acc = ref 0 in
  for round = 1 to 6 do
    let h = Hashtbl.create 16 in
    for i = 0 to 25_000 do
      Hashtbl.replace h ((i * 7919) + round) (string_of_int i)
    done;
    for i = 0 to 25_000 do
      match Hashtbl.find_opt h i with Some s -> acc := !acc + String.length s | None -> ()
    done;
    let l = List.init 20_000 Fun.id in
    acc := List.fold_left ( + ) !acc (List.rev_map (fun x -> x * 3) l)
  done;
  Sys.opaque_identity !acc

(* Seconds the kernel takes now. *)
let measure () =
  Gc.full_major ();
  let t0 = Egglog.Telemetry.now () in
  ignore (kernel ());
  Egglog.Telemetry.now () -. t0

(* The factor that brings times measured between two kernel runs to the
   reference speed. *)
let factor ~before ~after = reference_s /. ((before +. after) /. 2.0)
