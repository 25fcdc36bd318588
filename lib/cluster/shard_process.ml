type t = { pid : int; port : int; drain : Thread.t }

let prefix = "SQP_SERVE_PORT="

let spawn ~sqp ~points ~objects ~spec =
  let args =
    [| sqp; "serve"; "--port"; "0"; "--points"; string_of_int points;
       "--objects"; string_of_int objects; "--shard"; spec |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid = Unix.create_process sqp args Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let n = String.length prefix in
  let rec find_port () =
    let line = input_line ic in
    if String.length line > n && String.sub line 0 n = prefix then
      int_of_string (String.sub line n (String.length line - n))
    else find_port ()
  in
  match find_port () with
  | exception _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr ic;
      failwith (Printf.sprintf "shard %s failed to report a port" spec)
  | port ->
      let drain =
        Thread.create
          (fun () ->
            (try while true do ignore (input_line ic) done with _ -> ());
            close_in_noerr ic)
          ()
      in
      { pid; port; drain }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] s.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  Thread.join s.drain;
  status

let spawn_even ~sqp ~points ~objects n =
  let rec go i started =
    if i = n then List.rev started
    else
      match spawn ~sqp ~points ~objects ~spec:(Printf.sprintf "%d/%d" i n) with
      | s -> go (i + 1) (s :: started)
      | exception e ->
          List.iter (fun s -> ignore (stop s)) started;
          raise e
  in
  go 0 []

let port s = s.port
