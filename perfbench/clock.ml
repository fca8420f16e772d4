(* Process-level measurements shared by every workload. *)

let now = Unix.gettimeofday

(* User plus system CPU seconds of the whole process, every domain
   included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median l =
  match List.sort compare l with
  | [] -> invalid_arg "median of an empty list"
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Host reference: nanoseconds per iteration of a fixed integer loop,
   median of three timings.  It touches no program code, so a shift in
   it between runs is the host, not the change under test. *)
let host_ref_ns () =
  let iters = 20_000_000 in
  let once () =
    let t0 = now () in
    let x = ref 1 in
    for i = 1 to iters do
      x := ((!x * 1103515245) + i) land 0xffff_ffff
    done;
    ignore (Sys.opaque_identity !x);
    (now () -. t0) /. float_of_int iters *. 1e9
  in
  median [ once (); once (); once () ]
