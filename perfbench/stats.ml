(* Pure helpers shared by every workload: order statistics, the
   failure ledger and seed plumbing. Kept free of I/O so test_stats.ml
   can pin them down. *)

let sorted xs = List.sort Float.compare xs

(* Median of a non-empty sample; the mean of the two middle values when the
   count is even. *)
let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: empty sample"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   sample at or below it. *)
let percentile xs p =
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank [p]th percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

type tail = { t_pct : float; t_value : float; t_samples : int }

(* The reporting rule: a timing is given as its median plus the highest
   percentile that still has at least [min_beyond] samples above it. With
   [n] samples that is the sample at rank [n - min_beyond], i.e. the
   [100 (n - min_beyond) / n]th percentile; with [n <= min_beyond] no
   percentile qualifies. *)
let tail ?(min_beyond = 10) xs =
  let n = List.length xs in
  if n <= min_beyond then None
  else
    let a = Array.of_list (sorted xs) in
    let rank = n - min_beyond in
    Some
      {
        t_pct = 100.0 *. float_of_int rank /. float_of_int n;
        t_value = a.(rank - 1);
        t_samples = n;
      }

(* A fixed percentile is only reportable when the rule above allows it. *)
let supported ?(min_beyond = 10) xs p = beyond (List.length xs) p >= min_beyond

(* The failure ledger: every checked operation is attempted once and fails
   at most once, whatever went wrong with it (an exception, an error reply,
   a wrong answer). *)
type ledger = { mutable attempted : int; mutable failed : int; mutable first_error : string option }

let ledger () = { attempted = 0; failed = 0; first_error = None }

let fail l msg =
  l.failed <- l.failed + 1;
  if l.first_error = None then l.first_error <- Some msg

(* Run one operation under the ledger: [f] returns [Ok ()] for a correct
   result or [Error why]; an exception also counts as a failure. *)
let attempt l f =
  l.attempted <- l.attempted + 1;
  match f () with
  | Ok () -> ()
  | Error why -> fail l why
  | exception e -> fail l (Printexc.to_string e)

let fail_frac l = if l.attempted = 0 then 0.0 else float_of_int l.failed /. float_of_int l.attempted
